//===- Support.h - Timing, statistics and span recording -------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark's own measuring tools: a steady clock, order
/// statistics matching Python's statistics.quantiles (exclusive method),
/// a fine-grained request-latency histogram, the in-memory span recorder
/// of the traced run, and the metric table printed as the final JSON line.
///
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_SUPPORT_H
#define REPOBENCH_SUPPORT_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <pthread.h>
#include <sched.h>
#include <string>
#include <vector>

namespace repobench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Median and quartiles of a sample, computed like Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the spread the benchmark prints is the spread a reader recomputes.
struct Summary {
  double Q1 = 0.0;
  double Median = 0.0;
  double Q3 = 0.0;
  size_t Count = 0;
};

inline Summary summarize(std::vector<double> Values) {
  Summary S;
  S.Count = Values.size();
  if (Values.empty())
    return S;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  S.Median = N % 2 ? Values[N / 2]
                   : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
  if (N < 2) {
    S.Q1 = S.Q3 = S.Median;
    return S;
  }
  auto Cut = [&](long I) { // statistics.quantiles, method="exclusive"
    long M = static_cast<long>(N) + 1;
    long J = std::clamp(I * M / 4, 1L, static_cast<long>(N) - 1);
    double Delta = static_cast<double>(I * M - J * 4);
    return (Values[J - 1] * (4.0 - Delta) + Values[J] * Delta) / 4.0;
  };
  S.Q1 = Cut(1);
  S.Q3 = Cut(3);
  return S;
}

/// Moves the calling thread round-robin over the CPUs the process may
/// use, restoring its original affinity on destruction. On a shared
/// machine the interference differs per CPU and changes over time (the
/// same set-up took 0.6 ms pinned to three vCPUs and 1.2 ms on the
/// fourth), so a single-threaded workload that rotates its passes over
/// every CPU lets quietQuarter find the quiet ones instead of inheriting
/// whichever CPU the process started on.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Original);
    if (pthread_getaffinity_np(pthread_self(), sizeof(Original), &Original))
      return;
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Original))
        Cpus.push_back(Cpu);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      pthread_setaffinity_np(pthread_self(), sizeof(Original), &Original);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Pins the calling thread to the \p Step-th CPU, cyclically. A failure
  /// leaves the thread where it is; only the spread of timings suffers.
  void pin(size_t Step) const {
    if (Cpus.empty())
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Step % Cpus.size()], &Set);
    pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

/// Percentile \p Q in [0, 1] of \p Values, interpolating linearly
/// between the two nearest ranks (numpy's default).
inline double percentile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] +
         (Values[Hi] - Values[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Indices of the fastest quarter of \p Times (at least one), fastest
/// first: the quiet part of a run. On a shared machine, co-located load
/// slows whole stretches of a run (measured on a 4-vCPU VM: the same
/// apps pass took 0.70 s or 1.0 s within one process while a pure ALU
/// loop stayed flat), so end-to-end timings are taken over the passes
/// or epochs it spared.
inline std::vector<size_t> quietQuarter(const std::vector<double> &Times) {
  std::vector<size_t> Order(Times.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t A, size_t B) { return Times[A] < Times[B]; });
  Order.resize(std::min(Order.size(), std::max<size_t>(1, Order.size() / 4)));
  return Order;
}

/// The values of \p Times in the quiet quarter.
inline std::vector<double> quietValues(const std::vector<double> &Times) {
  std::vector<double> Out;
  for (size_t I : quietQuarter(Times))
    Out.push_back(Times[I]);
  return Out;
}

/// Request-latency histogram: exact 1 ns buckets below 2 us, then 256
/// log-spaced buckets per octave (0.3% resolution) up to ~17 s. One
/// per worker thread and epoch; merged after the epoch. Quantiles
/// interpolate linearly inside the bucket holding the rank.
class RequestHistogram {
public:
  static constexpr uint64_t LinearLimit = 2048;
  static constexpr unsigned SubBits = 8;
  static constexpr unsigned Octaves = 24;

  void record(uint64_t Ns) { ++Counts[bucketOf(Ns)]; }

  void clear() { std::fill(Counts.begin(), Counts.end(), 0); }

  void merge(const RequestHistogram &Other) {
    for (size_t I = 0; I != Counts.size(); ++I)
      Counts[I] += Other.Counts[I];
  }

  uint64_t count() const {
    uint64_t Total = 0;
    for (uint64_t C : Counts)
      Total += C;
    return Total;
  }

  /// Latency in nanoseconds at quantile \p Q in (0, 1).
  double quantile(double Q) const {
    uint64_t Total = count();
    if (Total == 0)
      return 0.0;
    double Rank = Q * static_cast<double>(Total);
    uint64_t Seen = 0;
    for (size_t I = 0; I != Counts.size(); ++I) {
      if (!Counts[I])
        continue;
      if (static_cast<double>(Seen + Counts[I]) >= Rank) {
        double Lo = lowerBound(I), Hi = lowerBound(I + 1);
        double Frac = (Rank - static_cast<double>(Seen)) /
                      static_cast<double>(Counts[I]);
        return Lo + (Hi - Lo) * Frac;
      }
      Seen += Counts[I];
    }
    return lowerBound(Counts.size());
  }

private:
  static constexpr size_t NumBuckets =
      LinearLimit + (size_t(Octaves) << SubBits);

  static size_t bucketOf(uint64_t Ns) {
    if (Ns < LinearLimit)
      return static_cast<size_t>(Ns);
    unsigned Msb = 63 - static_cast<unsigned>(__builtin_clzll(Ns));
    unsigned Octave = Msb - 11; // LinearLimit == 1 << 11
    if (Octave >= Octaves)
      return NumBuckets - 1;
    uint64_t Sub = (Ns >> (Msb - SubBits)) & ((1u << SubBits) - 1);
    return LinearLimit + (size_t(Octave) << SubBits) + Sub;
  }

  static double lowerBound(size_t Bucket) {
    if (Bucket < LinearLimit)
      return static_cast<double>(Bucket);
    size_t Rel = Bucket - LinearLimit;
    size_t Octave = Rel >> SubBits, Sub = Rel & ((1u << SubBits) - 1);
    double Base = static_cast<double>(LinearLimit) *
                  static_cast<double>(uint64_t(1) << Octave);
    return Base * (1.0 + static_cast<double>(Sub) / (1u << SubBits));
  }

  std::vector<uint64_t> Counts = std::vector<uint64_t>(NumBuckets, 0);
};

/// In-memory span recorder of the traced run. Spans are recorded only
/// on the benchmark's main thread, around the calls it makes into each
/// layer; a disabled recorder records nothing. Nesting follows the
/// begin/end order, so each span knows the span that caused it.
class SpanRecorder {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int64_t Parent = -1; ///< Index of the enclosing span, -1 for roots.
  };

  void setEnabled(bool Value) { Enabled = Value; }

  /// Opens a span; returns its index, or -1 when disabled.
  int64_t begin(const std::string &Name) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.StartNs = nowNs();
    Spans.push_back(std::move(S));
    Open.push_back(static_cast<int64_t>(Spans.size() - 1));
    return Open.back();
  }

  /// Closes span \p Id (a no-op for -1); returns its duration in ns.
  int64_t end(int64_t Id) {
    if (Id < 0)
      return 0;
    Span &S = Spans[static_cast<size_t>(Id)];
    S.EndNs = nowNs();
    while (!Open.empty()) { // Also closes anything left open inside.
      int64_t Top = Open.back();
      Open.pop_back();
      if (Top == Id)
        break;
    }
    return S.EndNs - S.StartNs;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span named \p Name, in ns: its duration minus the
  /// part its direct children cover.
  std::vector<double> selfTimes(const std::string &Name) const {
    std::vector<int64_t> Children(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Children[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    std::vector<double> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Name == Name)
        Out.push_back(static_cast<double>(Spans[I].EndNs -
                                          Spans[I].StartNs - Children[I]));
    return Out;
  }

  /// Durations of every span named \p Name, in ns.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
    return Out;
  }

private:
  bool Enabled = false;
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const std::string &Name)
      : Rec(Rec), Id(Rec.begin(Name)) {}
  ~ScopedSpan() { Rec.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Rec;
  int64_t Id;
};

/// Metric table of one run: name -> (value, unit), printed in name order.
struct MetricTable {
  std::map<std::string, std::pair<double, std::string>> Values;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Values[Name] = {Value, Unit};
  }
};

/// Correctness-check tally behind `attempted` / `failed`.
struct CheckTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Counts one check; prints \p What to stderr when it fails.
  bool check(bool Ok, const char *What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Failed <= 20)
        std::fprintf(stderr, "check failed: %s\n", What);
    }
    return Ok;
  }
};

} // namespace repobench

#endif // REPOBENCH_SUPPORT_H
