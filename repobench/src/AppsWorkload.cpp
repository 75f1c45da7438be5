//===- AppsWorkload.cpp - apps-fixed and apps-adaptive --------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Each pass runs the five DaCapo simulants once, at the run's seed and a
// fixed scale: under AppConfig::Original (apps-fixed: the collections
// layer alone, unmonitored facades over fixed variants) or under
// AppConfig::FullAdap with the Rtime rule (apps-adaptive: Table 5's T1
// column, where contexts sample, count, analyse and switch on top).
//
// A request is one runApp call. Every result's checksum must equal the
// one the Original configuration produced for the same seed and scale
// in the reference pass, which runs before measuring.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/Apps.h"
#include "core/Switch.h"

#include <array>
#include <string>

using namespace cswitch;
using namespace repobench;

namespace {

/// Scale 4 takes ~0.7 s per pass on a 4-vCPU x86 VM: long enough that a
/// pass dwarfs the clock and scheduler noise, short enough for ~40
/// passes in a 30 s run.
constexpr double AppScale = 4.0;

/// Monitoring options of the paper's evaluation (Table 5 harness).
ContextOptions appContextOptions() {
  return ContextOptions{}.windowSize(100).finishedRatio(0.6).logEvents(false);
}

/// One set-up: the model, the process-wide configuration and the run
/// configuration. Exits when the model does not load.
AppRunConfig setUp(uint64_t Seed) {
  std::shared_ptr<const PerformanceModel> Model = loadBenchModel();
  if (!Model)
    std::exit(2);
  Switch::setModel(Model);
  SwitchConfig Config;
  Config.Context = appContextOptions();
  Switch::configure(Config);
  AppRunConfig Base;
  Base.Model = Model;
  Base.Seed = Seed;
  Base.Scale = AppScale;
  Base.Rule = SelectionRule::timeRule();
  Base.CtxOptions = appContextOptions();
  return Base;
}

} // namespace

void repobench::runAppsWorkload(Run &R, bool Adaptive) {
  SetupTimer Setups(R.Opts.Seconds);
  AppRunConfig Base = Setups.time([&] { return setUp(R.Opts.Seed); });

  // Reference checksums: the unmodified program at this seed and scale.
  AppRunConfig Original = Base;
  Original.Config = AppConfig::Original;
  std::array<uint64_t, NumAppKinds> Reference{};
  for (size_t A = 0; A != NumAppKinds; ++A)
    Reference[A] = runApp(AllAppKinds[A], Original).Checksum;

  AppRunConfig Measured = Base;
  Measured.Config = Adaptive ? AppConfig::FullAdap : AppConfig::Original;

  struct PassResult {
    double Seconds = 0.0;
    double PeakKB = 0.0;
    std::array<double, NumAppKinds> RequestUs{};
    EngineStats Stats;
  };
  auto RunPass = [&](bool Traced) {
    R.Spans.setEnabled(Traced);
    PassResult P;
    ScopedSpan PassSpan(R.Spans, "pass");
    for (size_t A = 0; A != NumAppKinds; ++A) {
      AppKind App = AllAppKinds[A];
      int64_t Span = R.Spans.begin(std::string("runApp:") + appKindName(App));
      auto Start = Clock::now();
      AppResult Result = runApp(App, Measured);
      double Seconds = secondsSince(Start);
      R.Spans.end(Span);
      R.Checks.check(Result.Checksum == Reference[A],
                     "app checksum differs from the Original run");
      P.Seconds += Seconds;
      P.PeakKB += static_cast<double>(Result.PeakLiveBytes) / 1e3;
      P.RequestUs[A] = Seconds * 1e6;
      P.Stats += Result.Stats;
    }
    return P;
  };

  // One unmeasured pass in the measured configuration warms caches,
  // the allocator and the per-site profiling registry.
  RunPass(false);

  CpuRotation Rotation;
  std::vector<PassResult> Passes;
  std::vector<double> PassS, TracedPassS, UntracedPassS;
  auto Start = Clock::now();
  // At least eight passes, so the quiet quarter holds two and the traced
  // run has traced and untraced ones however short the run.
  for (size_t Pass = 0; Pass < 8 || secondsSince(Start) < R.Opts.Seconds;
       ++Pass) {
    // The traced run alternates traced and untraced passes, so the
    // tracing overhead is measured within one process; each CPU of the
    // rotation gets one of each.
    bool Traced = R.Opts.Trace && Pass % 2 == 0;
    Rotation.pin(Pass / 2);
    if (Setups.due())
      Setups.time([&] { return setUp(R.Opts.Seed); });
    Passes.push_back(RunPass(Traced));
    PassS.push_back(Passes.back().Seconds);
    (Traced ? TracedPassS : UntracedPassS).push_back(PassS.back());
  }
  R.Spans.setEnabled(false);
  reportSetup(R, Setups.times());

  // Timings over the quiet quarter of the passes (see quietQuarter). A
  // request is one runApp call; like session-server's epochs, each pass
  // gives a percentile of its requests' latencies (the five apps differ
  // in length, so the median is the middle app and p99 nearly the
  // longest), and the metric is the median over the quiet passes.
  std::vector<double> QuietS = quietValues(PassS), P50Us, P99Us, PeakKB;
  for (size_t I : quietQuarter(PassS)) {
    std::vector<double> Us(Passes[I].RequestUs.begin(),
                           Passes[I].RequestUs.end());
    P50Us.push_back(percentile(Us, 0.50));
    P99Us.push_back(percentile(Us, 0.99));
  }
  for (const PassResult &P : Passes)
    PeakKB.push_back(P.PeakKB);
  Summary Quiet = summarize(QuietS);
  R.EndToEnd.set("run_s", Quiet.Median, "s");
  R.noteSummary("run_s (quiet passes)", Quiet, "s");
  R.noteSummary("all passes", summarize(PassS), "s");
  double QuietTotal = 0.0;
  for (double S : QuietS)
    QuietTotal += S;
  R.EndToEnd.set("ops_per_s",
                 static_cast<double>(NumAppKinds * QuietS.size()) / QuietTotal,
                 "req/s");
  R.EndToEnd.set("req_p50_us", summarize(P50Us).Median, "us");
  R.EndToEnd.set("req_p99_us", summarize(P99Us).Median, "us");
  R.note("requests", std::to_string(NumAppKinds * QuietS.size()) +
                         " runApp calls in " + std::to_string(QuietS.size()) +
                         " quiet passes");
  R.EndToEnd.set("peak_live_kb", summarize(PeakKB).Median, "KB");

  // Monitoring counts come from AppResult::Stats (the engine interval
  // each run captures while its harness contexts are alive), per pass.
  reportEngineCounts(R, Passes.front().Stats);
  for (AppKind App : AllAppKinds) {
    std::string Span = std::string("runApp:") + appKindName(App);
    R.Layers.set(std::string("apps.") + appKindName(App) + "_ms",
                 summarize(R.Spans.selfTimes(Span)).Median / 1e6, "ms");
  }
  for (const char *Name : {"core.create_us", "core.retire_us"})
    R.Layers.set(Name, 0.0, "us");
  R.Layers.set("core.evaluate_all_ms", 0.0, "ms");

  if (R.Opts.Trace)
    reportTraceOverhead(R, TracedPassS, UntracedPassS);
}
