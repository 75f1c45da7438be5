//===- Bench.h - Shared state of one benchmark run --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the workloads and the per-layer ladder share: the command-line
/// options, the span recorder, the correctness tally, the set-up timer
/// and the metric tables that become the final JSON line. See
/// repobench/README.md for the workloads and the metric map.
///
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_BENCH_H
#define REPOBENCH_BENCH_H

#include "Support.h"

#include "model/CostModel.h"
#include "support/Telemetry.h"

#include <memory>
#include <string>

namespace repobench {

/// The measured model every workload runs with. Set-up loads it from this
/// path (relative to the checkout root) and never calibrates: a model
/// measured during the run would make every run select differently.
inline constexpr const char *ModelPath = "data/cswitch_model.txt";

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut; ///< Where the traced run writes its spans.
};

/// One benchmark run: inputs, instruments and results.
struct Run {
  RunOptions Opts;
  SpanRecorder Spans;
  CheckTally Checks;
  /// End-to-end metrics (printed with --trace 0).
  MetricTable EndToEnd;
  /// Per-layer metrics (printed with --trace 1).
  MetricTable Layers;
  /// Free-form facts printed on the info line before the result: sample
  /// counts, ladder quartiles and the base of every difference.
  std::vector<std::pair<std::string, std::string>> Notes;

  void note(const std::string &Key, const std::string &Value) {
    Notes.emplace_back(Key, Value);
  }
  /// Records \p S under \p Key as "median [q1, q3] n=N unit".
  void noteSummary(const std::string &Key, const Summary &S,
                   const char *Unit);
};

/// Loads the benchmark model: PerformanceModel::loadFromFile plus the
/// analytic concurrent-tier rows, as the bench harnesses do. Returns
/// null (and prints why) when the file is missing or incomplete.
std::shared_ptr<const cswitch::PerformanceModel> loadBenchModel();

/// The workloads: each sets up (timing setup_s), measures for
/// Opts.Seconds, and fills both metric tables and the check tally.
void runAppsWorkload(Run &R, bool Adaptive);
void runSessionServerWorkload(Run &R);

/// Times a workload's set-up repeatedly, spread over the run: once
/// before measuring (the set-up the run uses) and again whenever
/// Seconds / Repeats have passed, between passes or epochs, with the
/// product discarded. On a shared machine the speed of a millisecond
/// of work flips between two modes from one second to the next, so
/// back-to-back repetitions would all land in one mode. Each sample
/// times the second of two back-to-back set-ups: right after a pass the
/// first one runs on caches and an allocator the pass left cold (~6 ms
/// instead of ~1 ms for the apps set-up).
class SetupTimer {
public:
  static constexpr double Repeats = 16;

  explicit SetupTimer(double Seconds) : Interval(Seconds / Repeats) {}

  /// Runs \p SetUp twice and times the second run, returning what it
  /// produced.
  template <typename Fn> auto time(Fn &&SetUp) {
    SetUp();
    auto Start = Clock::now();
    auto Product = SetUp();
    Times.push_back(secondsSince(Start));
    Last = Clock::now();
    return Product;
  }

  /// True when the next repetition is due.
  bool due() const { return secondsSince(Last) >= Interval; }

  const std::vector<double> &times() const { return Times; }

private:
  double Interval;
  Clock::time_point Last = Clock::now();
  std::vector<double> Times;
};

/// Sets setup_s from the set-up repetitions' times: the median of their
/// quiet quarter.
void reportSetup(Run &R, const std::vector<double> &SetupS);

/// Sets the core.* count and waste-ratio metrics from an engine interval.
void reportEngineCounts(Run &R, const cswitch::EngineStats &S);

/// Sets bench.trace_overhead_frac: the quiet-quarter median of the traced
/// passes (or epochs) over that of the untraced ones, minus 1.
void reportTraceOverhead(Run &R, const std::vector<double> &Traced,
                         const std::vector<double> &Untraced);

/// The per-layer ladder of the traced run (collections, core, profile,
/// model, obs and replay rungs).
void runLadder(Run &R);

} // namespace repobench

#endif // REPOBENCH_BENCH_H
