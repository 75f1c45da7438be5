//===- main.cpp - The repository benchmark --------------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Usage (from the repository root; repobench/run.py builds and calls it):
//
//   cswitch_repobench --workload apps-fixed|apps-adaptive|session-server
//                     --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints an info line (machine, environment, sample counts, ladder
// quartiles) and, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer
// metrics with --trace 1. The traced run also writes its spans to
// --trace-out. See repobench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "model/DefaultModel.h"
#include "obs/Profiling.h"
#include "obs/Provenance.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>

using namespace cswitch;
using namespace repobench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string readFile(const char *Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// FNV-1a 64 of the model file: names the exact model a result used.
std::string fingerprint(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "fnv1a64:%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: cswitch_repobench --workload "
               "apps-fixed|apps-adaptive|session-server --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               Why);
  std::exit(2);
}

RunOptions parseArgs(int Argc, char **Argv) {
  RunOptions Opts;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      usage("every option takes a value");
    std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && !*End && !Value.empty();
    } else if (Key == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && !*End && Opts.Seconds > 0 && Opts.Seconds <= 120;
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      Opts.Trace = Value == "1";
      HaveTrace = true;
    } else if (Key == "--trace-out") {
      Opts.TraceOut = Value;
    } else {
      usage(("unknown option " + Key).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds (0 < S <= 120) and --trace are "
          "required");
  if (Opts.Workload != "apps-fixed" && Opts.Workload != "apps-adaptive" &&
      Opts.Workload != "session-server")
    usage(("unknown workload " + Opts.Workload).c_str());
  return Opts;
}

/// Pins the environment the benchmark measures. Artifacts that change
/// selection (CSWITCH_TUNING) or add capture work (CSWITCH_EXPLAIN) are
/// rejected rather than measured; the optional hooks are set explicitly.
void pinEnvironment() {
  for (const char *Var : {"CSWITCH_EXPLAIN", "CSWITCH_TUNING"}) {
    const char *Value = std::getenv(Var);
    if (Value && *Value) {
      std::fprintf(stderr,
                   "error: %s is set; the benchmark measures the default "
                   "configuration, unset it\n",
                   Var);
      std::exit(2);
    }
  }
  obs::ProvenanceRegistry::setEnabled(false);
  obs::ProfilingRegistry::setEnabled(true); // The library default.
}

std::string infoLine(const Run &R) {
  const char *Numa = std::getenv("CSWITCH_NUMA_NODES");
  std::string Model = readFile(ModelPath);
  std::ostringstream Out;
  Out << "{\"info\": {\"machine\": {\"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"cpu\": " << jsonString(cpuModel())
      << ", \"build_type\": " << jsonString(REPOBENCH_BUILD_TYPE)
      << ", \"compiler\": " << jsonString(REPOBENCH_COMPILER)
      << ", \"seed\": " << R.Opts.Seed << "}, \"workload\": "
      << jsonString(R.Opts.Workload) << ", \"seconds\": "
      << jsonNumber(R.Opts.Seconds) << ", \"trace\": " << R.Opts.Trace
      << ", \"env\": {\"CSWITCH_EXPLAIN\": \"unset\", \"CSWITCH_TUNING\": "
         "\"unset\", \"CSWITCH_NUMA_NODES\": "
      << jsonString(Numa ? Numa : "unset")
      << ", \"provenance\": \"off\", \"latency_recording\": \"on\"}"
      << ", \"model\": {\"path\": " << jsonString(ModelPath)
      << ", \"fingerprint\": " << jsonString(fingerprint(Model))
      << "}, \"notes\": {";
  for (size_t I = 0; I != R.Notes.size(); ++I)
    Out << (I ? ", " : "") << jsonString(R.Notes[I].first) << ": "
        << jsonString(R.Notes[I].second);
  Out << "}}}";
  return Out.str();
}

std::string resultLine(const Run &R) {
  const MetricTable &Table = R.Opts.Trace ? R.Layers : R.EndToEnd;
  std::ostringstream Out;
  Out << "{\"correct\": " << (R.Checks.Failed == 0 ? "true" : "false")
      << ", \"attempted\": " << R.Checks.Attempted
      << ", \"failed\": " << R.Checks.Failed << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, ValueUnit] : Table.Values) {
    Out << (First ? "" : ", ") << jsonString(Name) << ": {\"value\": "
        << jsonNumber(ValueUnit.first)
        << ", \"unit\": " << jsonString(ValueUnit.second) << "}";
    First = false;
  }
  Out << "}}";
  return Out.str();
}

/// Peak resident set size of this process image, in MB: VmHWM, because
/// getrusage's ru_maxrss survives execve and would report the launching
/// interpreter's peak whenever that was larger.
double maxRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

/// Writes the traced run's spans (name, start, end, parent) as JSON.
bool writeSpans(const Run &R) {
  std::ofstream Out(R.Opts.TraceOut);
  if (!Out)
    return false;
  const auto &Spans = R.Spans.spans();
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"workload\": " << jsonString(R.Opts.Workload)
      << ", \"seed\": " << R.Opts.Seed << ", \"spans\": [\n";
  for (size_t I = 0; I != Spans.size(); ++I)
    Out << (I ? ",\n" : "") << "{\"id\": " << I
        << ", \"name\": " << jsonString(Spans[I].Name)
        << ", \"start_ns\": " << Spans[I].StartNs - Origin
        << ", \"end_ns\": " << Spans[I].EndNs - Origin
        << ", \"parent\": " << Spans[I].Parent << "}";
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

} // namespace

void Run::noteSummary(const std::string &Key, const Summary &S,
                      const char *Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "median %.6g [q1 %.6g, q3 %.6g] n=%zu %s",
                S.Median, S.Q1, S.Q3, S.Count, Unit);
  note(Key, Buf);
}

std::shared_ptr<const PerformanceModel> repobench::loadBenchModel() {
  auto Model = std::make_shared<PerformanceModel>();
  std::string Error;
  if (!Model->loadFromFile(ModelPath, &Error)) {
    std::fprintf(stderr, "error: cannot load %s: %s\n", ModelPath,
                 Error.c_str());
    return nullptr;
  }
  augmentConcurrentCoverage(*Model);
  return Model;
}

void repobench::reportSetup(Run &R, const std::vector<double> &SetupS) {
  Summary Quiet = summarize(quietValues(SetupS));
  R.EndToEnd.set("setup_s", Quiet.Median, "s");
  R.noteSummary("setup_s (quiet set-ups)", Quiet, "s");
  R.noteSummary("all set-ups", summarize(SetupS), "s");
}

void repobench::reportEngineCounts(Run &R, const EngineStats &S) {
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  R.Layers.set("core.instances_created",
               static_cast<double>(S.InstancesCreated), "count");
  R.Layers.set("core.monitored_frac",
               Ratio(S.InstancesMonitored, S.InstancesCreated), "ratio");
  R.Layers.set("core.evaluations", static_cast<double>(S.Evaluations),
               "count");
  R.Layers.set("core.switches", static_cast<double>(S.Switches), "count");
  R.Layers.set("core.switch_frac", Ratio(S.Switches, S.Evaluations),
               "ratio");
  R.Layers.set("core.discard_frac",
               Ratio(S.ProfilesDiscarded,
                     S.ProfilesPublished + S.ProfilesDiscarded),
               "ratio");
}

void repobench::reportTraceOverhead(Run &R, const std::vector<double> &Traced,
                                    const std::vector<double> &Untraced) {
  Summary T = summarize(quietValues(Traced));
  Summary U = summarize(quietValues(Untraced));
  R.Layers.set("bench.trace_overhead_frac", T.Median / U.Median - 1.0,
               "ratio");
  R.noteSummary("trace.traced_run_s", T, "s");
  R.noteSummary("trace.untraced_run_s (base)", U, "s");
}

int main(int Argc, char **Argv) {
  Run R;
  R.Opts = parseArgs(Argc, Argv);
  pinEnvironment();

  if (R.Opts.Workload == "session-server")
    runSessionServerWorkload(R);
  else
    runAppsWorkload(R, R.Opts.Workload == "apps-adaptive");
  R.EndToEnd.set("max_rss_mb", maxRssMb(), "MB");
  if (R.Opts.Trace)
    runLadder(R);
  double FailedFrac =
      static_cast<double>(R.Checks.Failed) /
      static_cast<double>(std::max<uint64_t>(R.Checks.Attempted, 1));

  if (R.Opts.Trace) {
    R.Layers.set("failed_frac", FailedFrac, "ratio");
    if (!R.Opts.TraceOut.empty() && !writeSpans(R))
      std::fprintf(stderr, "warning: cannot write %s\n",
                   R.Opts.TraceOut.c_str());
  }
  R.note("failed_frac", jsonNumber(FailedFrac) + " ratio (" +
                            std::to_string(R.Checks.Failed) + " of " +
                            std::to_string(R.Checks.Attempted) +
                            " checks failed)");
  std::printf("%s\n%s\n", infoLine(R).c_str(), resultLine(R).c_str());
  return 0;
}
