//===- Ladder.cpp - The per-layer ladder of the traced run ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Each rung times one layer's share of a collection's life through the
// public API. The lifecycle is the one ROADMAP's baseline quotes: create
// a 16-element list, add 16, probe 16 (half hits), iterate once, destroy
// — 33 operations. Rungs run interleaved, one batch each per round, so
// drift hits every rung alike; each difference is taken within a round
// and the metric is the median over rounds. The ladder prints every
// rung's median and quartiles, and names the base of every difference.
//
//   collections.impl_ns_per_op    ArrayList impl through its vtable
//   collections.facade_ns_per_op  List facade over a fixed impl
//   core.unsampled_ns_per_op      facade from a context, not sampled
//   core.lifecycle_ns             sampled minus unsampled empty lifecycle
//                                 (slot claim + report), per instance
//   profile.counting_ns_per_op    sampled minus unsampled, per op, with
//                                 the lifecycle cost taken out
//   replay.recorder_ns_per_op     sampled with a TraceRecorder minus
//                                 sampled without, per op
//   obs.histogram_ns_per_instance sampled empty lifecycle with latency
//                                 recording on minus off
//   profile.shared_ns_per_op      op on a ShardedHashMap from a Sharded
//                                 context minus the raw impl
//   core.evaluate_us              one evaluate() on a full window
//   obs.explain_us_per_round      evaluate() with provenance on minus off
//   model.load_ms                 PerformanceModel::loadFromFile + the
//                                 concurrent-tier backfill
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Switch.h"
#include "obs/Profiling.h"
#include "obs/Provenance.h"
#include "replay/TraceRecorder.h"
#include "support/Random.h"

#include <functional>
#include <map>

using namespace cswitch;
using namespace repobench;

namespace {

constexpr int Elems = 16;
constexpr double OpsPerLifecycle = 2 * Elems + 1;
constexpr size_t Lifecycles = 4096; ///< Per batch.
constexpr int Rounds = 31;
constexpr size_t SharedOps = 1 << 16; ///< Per batch.
constexpr int SharedKeys = 1024;
constexpr int EvaluateReps = 201;
constexpr size_t EvaluateWindow = 100;

/// Keys 0..15 are added; probes alternate hits and misses.
struct LifecycleKeys {
  int Add[Elems];
  int Probe[Elems];
  LifecycleKeys() {
    for (int I = 0; I != Elems; ++I) {
      Add[I] = I * 7 + 1;
      Probe[I] = I % 2 ? Add[I] : -Add[I];
    }
  }
};
const LifecycleKeys Keys;

/// Volatile sink: keeps the optimizer from dropping the measured work.
volatile uint64_t Sink = 0;

template <typename ListT> void useList(ListT &L) {
  uint64_t Acc = 0;
  for (int K : Keys.Add)
    L.add(K);
  for (int K : Keys.Probe)
    Acc += L.contains(K);
  L.forEach([&Acc](const int &V) { Acc += static_cast<uint64_t>(V); });
  Sink = Sink + Acc;
}

/// SharedOps alternating puts and lookups over SharedKeys present keys;
/// the Map facade and the MapImpl share this spelling.
template <typename MapT> void useMap(MapT &M) {
  uint64_t Acc = 0;
  for (size_t I = 0; I != SharedOps; ++I) {
    int64_t K = static_cast<int64_t>((I * 37) % SharedKeys);
    int64_t V = 0;
    if (I % 2)
      Acc += M.lookup(K, V);
    else
      M.put(K, K);
  }
  Sink = Sink + Acc;
}

/// Adapts a ListImpl to the add/contains/forEach spelling of useList.
struct ImplRef {
  ListImpl<int> &Impl;
  void add(int V) { Impl.push_back(V); }
  bool contains(int V) const { return Impl.contains(V); }
  template <typename Fn> void forEach(Fn F) const { Impl.forEach(F); }
};

/// Nanoseconds \p Body takes.
double timeNs(const std::function<void()> &Body) {
  int64_t Start = nowNs();
  Body();
  return static_cast<double>(nowNs() - Start);
}

ContextHandle<ListContext<int>> sampledContext(TraceRecorder *Rec) {
  // One window slot per lifecycle of the batch, so every instance of the
  // batch claims a slot; no evaluate() runs, so the variant stays fixed.
  return Switch::makeContext<List<int>>(
      "bench:ladder.sampled", ListVariant::ArrayList,
      SelectionRule::timeRule(),
      ContextOptions{}.windowSize(Lifecycles).logEvents(false).recorder(Rec));
}

} // namespace

void repobench::runLadder(Run &R) {
  R.Spans.setEnabled(true);
  ScopedSpan LadderSpan(R.Spans, "ladder");

  // The unsampled rung's context keeps its single window slot claimed by
  // a held instance, so every later creation is unmonitored.
  auto Unsampled = Switch::makeContext<List<int>>(
      "bench:ladder.unsampled", ListVariant::ArrayList,
      SelectionRule::timeRule(),
      ContextOptions{}.windowSize(1).logEvents(false));
  List<int> Held = Unsampled->createList();
  R.Checks.check(Held.isMonitored(), "first instance of a context sampled");

  auto SharedCtx = Switch::makeContext<Map<int64_t, int64_t>>(
      "bench:ladder.shared", MapVariant::ShardedHashMap,
      SelectionRule::timeRule(),
      ContextOptions{}.logEvents(false).concurrency(Concurrency::Sharded));
  Map<int64_t, int64_t> Shared = SharedCtx->createMap();
  auto Raw = makeMapImpl<int64_t, int64_t>(MapVariant::ShardedHashMap);
  R.Checks.check(Shared.variant() == MapVariant::ShardedHashMap &&
                     Shared.isShared(),
                 "Sharded context yields a shared ShardedHashMap");
  for (int K = 0; K != SharedKeys; ++K) {
    Shared.put(K, K);
    Raw->put(K, K);
  }

  std::map<std::string, std::vector<double>> Ns;
  auto Rung = [&](const char *Name, const std::function<void()> &Body,
                  bool Record) {
    double T = 0.0;
    {
      ScopedSpan S(R.Spans, std::string("rung:") + Name);
      T = timeNs(Body);
    }
    if (Record)
      Ns[Name].push_back(T);
  };

  for (int Round = 0; Round <= Rounds; ++Round) {
    bool Record = Round > 0; // Round 0 warms up.
    ScopedSpan RoundSpan(R.Spans, "ladder.round");
    Rung("impl", [] {
      for (size_t I = 0; I != Lifecycles; ++I) {
        auto Impl = makeListImpl<int>(ListVariant::ArrayList);
        ImplRef L{*Impl};
        useList(L);
      }
    }, Record);
    Rung("facade", [] {
      for (size_t I = 0; I != Lifecycles; ++I) {
        List<int> L(makeListImpl<int>(ListVariant::ArrayList));
        useList(L);
      }
    }, Record);
    size_t Monitored = 0;
    Rung("unsampled", [&] {
      for (size_t I = 0; I != Lifecycles; ++I) {
        List<int> L = Unsampled->createList();
        Monitored += L.isMonitored();
        useList(L);
      }
    }, Record);
    Rung("unsampled_empty", [&] {
      for (size_t I = 0; I != Lifecycles; ++I) {
        List<int> L = Unsampled->createList();
        Monitored += L.isMonitored();
      }
    }, Record);
    R.Checks.check(Monitored == 0, "instances past a full window unsampled");

    // Sampled rungs: a fresh context per batch (created outside the
    // timed region) so every instance claims a slot.
    auto Sampled = [&](const char *Name, bool Ops, TraceRecorder *Rec) {
      auto Ctx = sampledContext(Rec);
      size_t Count = 0;
      Rung(Name, [&] {
        for (size_t I = 0; I != Lifecycles; ++I) {
          List<int> L = Ctx->createList();
          Count += L.isMonitored();
          if (Ops)
            useList(L);
        }
      }, Record);
      R.Checks.check(Count == Lifecycles, "instances within the window "
                                          "sampled");
    };
    Sampled("sampled", true, nullptr);
    Sampled("sampled_empty", false, nullptr);
    obs::ProfilingRegistry::setEnabled(false);
    Sampled("sampled_empty_nohist", false, nullptr);
    obs::ProfilingRegistry::setEnabled(true);
    {
      TraceRecorder Rec(TraceRecorderOptions{}.capacity(
          Lifecycles * static_cast<size_t>(OpsPerLifecycle) * 2));
      Sampled("sampled_recorded", true, &Rec);
      R.Checks.check(Rec.trace().OpsDropped == 0,
                     "recorder kept every operation");
    }

    Rung("shared", [&] { useMap(Shared); }, Record);
    Rung("raw", [&] { useMap(*Raw); }, Record);
    Rung("model_load", [] {
      if (!loadBenchModel())
        std::exit(2);
    }, Record);
  }

  // evaluate() on a full window, provenance capture alternating off/on.
  {
    auto Ctx = Switch::makeContext<List<int>>(
        "bench:ladder.evaluate", ListVariant::ArrayList,
        SelectionRule::timeRule(),
        ContextOptions{}.windowSize(EvaluateWindow).finishedRatio(0.6)
            .logEvents(false));
    SplitMix64 Rng(R.Opts.Seed);
    for (int Rep = 0; Rep <= 2 * EvaluateReps; ++Rep) {
      for (size_t I = 0; I != EvaluateWindow; ++I) {
        List<int> L = Ctx->createList();
        int Size = static_cast<int>(Rng.nextInRange(1, 64));
        for (int K = 0; K != Size; ++K)
          L.add(K);
        for (int K = 0; K != Size; ++K)
          Sink = Sink + L.contains(K * 2);
      }
      bool Explain = Rep % 2 == 1;
      obs::ProvenanceRegistry::setEnabled(Explain);
      ScopedSpan S(R.Spans, Explain ? "rung:evaluate_explain"
                                    : "rung:evaluate");
      double T = timeNs([&] { Ctx->evaluate(); });
      obs::ProvenanceRegistry::setEnabled(false);
      if (Rep > 0)
        Ns[Explain ? "evaluate_explain" : "evaluate"].push_back(T);
    }
    R.Checks.check(Ctx->evaluationCount() ==
                       static_cast<uint64_t>(2 * EvaluateReps + 1),
                   "every full-window evaluate() analysed a round");
  }

  auto PerOp = [&](const char *Name, double Ops) {
    std::vector<double> V;
    for (double T : Ns[Name])
      V.push_back(T / Ops);
    return V;
  };
  auto Diff = [](const std::vector<double> &A, const std::vector<double> &B) {
    std::vector<double> V;
    for (size_t I = 0; I != std::min(A.size(), B.size()); ++I)
      V.push_back(A[I] - B[I]);
    return V;
  };
  double LifeOps = Lifecycles * OpsPerLifecycle;
  auto Report = [&](const char *Metric, const std::vector<double> &V,
                    const char *Unit, const char *Base) {
    Summary S = summarize(V);
    R.Layers.set(Metric, S.Median, Unit);
    R.noteSummary(std::string("ladder.") + Metric, S, Unit);
    if (Base)
      R.note(std::string("ladder.") + Metric + ".base", Base);
  };

  Report("collections.impl_ns_per_op", PerOp("impl", LifeOps), "ns/op",
         nullptr);
  Report("collections.facade_ns_per_op", PerOp("facade", LifeOps), "ns/op",
         nullptr);
  Report("core.unsampled_ns_per_op", PerOp("unsampled", LifeOps), "ns/op",
         nullptr);
  Report("core.lifecycle_ns",
         Diff(PerOp("sampled_empty", Lifecycles),
              PerOp("unsampled_empty", Lifecycles)),
         "ns", "unsampled empty lifecycle (create + destroy)");
  Report("profile.counting_ns_per_op",
         Diff(Diff(PerOp("sampled", LifeOps), PerOp("sampled_empty", LifeOps)),
              Diff(PerOp("unsampled", LifeOps),
                   PerOp("unsampled_empty", LifeOps))),
         "ns/op", "unsampled op (lifecycle cost removed from both)");
  Report("replay.recorder_ns_per_op",
         Diff(PerOp("sampled_recorded", LifeOps), PerOp("sampled", LifeOps)),
         "ns/op", "sampled op without a recorder");
  Report("obs.histogram_ns_per_instance",
         Diff(PerOp("sampled_empty", Lifecycles),
              PerOp("sampled_empty_nohist", Lifecycles)),
         "ns", "sampled empty lifecycle with latency recording off");
  Report("profile.shared_ns_per_op",
         Diff(PerOp("shared", SharedOps), PerOp("raw", SharedOps)), "ns/op",
         "same op on the raw ShardedHashMap impl");
  Report("core.evaluate_us", PerOp("evaluate", 1e3), "us", nullptr);
  Report("obs.explain_us_per_round",
         Diff(PerOp("evaluate_explain", 1e3), PerOp("evaluate", 1e3)), "us",
         "evaluate() with provenance off");
  Report("model.load_ms", PerOp("model_load", 1e6), "ms", nullptr);
  R.Layers.set("collections.facade_bytes",
               static_cast<double>(std::max(
                   {sizeof(List<int>), sizeof(Set<int>), sizeof(Map<int, int>)})),
               "bytes");
}
