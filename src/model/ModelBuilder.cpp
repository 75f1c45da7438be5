//===- ModelBuilder.cpp - Benchmark-driven model construction ------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "model/ModelBuilder.h"

#include "model/EnergyModel.h"

#include "collections/Factory.h"
#include "support/LeastSquares.h"
#include "support/MemoryTracker.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <sstream>

using namespace cswitch;

namespace {

/// Element type of the factorial plan (paper Table 3: Integer, uniform).
using Elem = int64_t;

/// Defeats dead-code elimination of lookup results.
volatile uint64_t MeasurementSink;

/// One measured sample: per-operation nanoseconds and allocated bytes.
struct OpSample {
  double Nanos;
  double AllocBytes;
};

/// Times \p Body until both MinSampleNanos and one full execution have
/// elapsed; \p OpsPerExecution ops happen per Body call.
template <typename Fn>
OpSample measurePerOp(uint64_t MinSampleNanos, size_t OpsPerExecution,
                      Fn &&Body) {
  AllocationScope Alloc;
  Timer Clock;
  uint64_t Executions = 0;
  do {
    Body();
    ++Executions;
  } while (Clock.elapsedNanos() < MinSampleNanos);
  double Ops =
      static_cast<double>(Executions) * static_cast<double>(OpsPerExecution);
  return {static_cast<double>(Clock.elapsedNanos()) / Ops,
          static_cast<double>(Alloc.allocatedInScope()) / Ops};
}

/// \p Measured, with its time replaced by the injected time source of
/// \p Options when there is one.
OpSample timedSample(const ModelBuildOptions &Options, VariantId Variant,
                     OperationKind Op, size_t Size, OpSample Measured) {
  if (Options.TimeCost)
    Measured.Nanos = Options.TimeCost(Variant, Op, Size);
  return Measured;
}

/// Uniform distinct keys for a collection of \p Size elements, plus an
/// equal number of keys guaranteed absent (the paper's contains scenario
/// mixes hits and misses).
struct KeySet {
  std::vector<Elem> Present;
  std::vector<Elem> Absent;

  KeySet(SplitMix64 &Rng, size_t Size) {
    std::vector<Elem> All =
        distinctIntegers(Rng, Size * 2, static_cast<int64_t>(Size) * 16 + 64);
    Present.assign(All.begin(), All.begin() + static_cast<ptrdiff_t>(Size));
    Absent.assign(All.begin() + static_cast<ptrdiff_t>(Size), All.end());
  }
};

//===----------------------------------------------------------------------===//
// List scenarios
//===----------------------------------------------------------------------===//

void runListScenarios(
    ListVariant Variant, OperationKind Op, size_t Size, SplitMix64 &Rng,
    const ModelBuildOptions &Options,
    const std::function<void(const OpSample &)> &EmitSample) {
  KeySet Keys(Rng, Size);
  size_t Iterations = Options.WarmupIterations + Options.MeasuredIterations;

  // Pre-populated instance for the read-mostly scenarios.
  std::unique_ptr<ListImpl<Elem>> Populated = makeListImpl<Elem>(Variant);
  if (Op != OperationKind::Populate) {
    Populated->reserve(Size);
    for (Elem V : Keys.Present)
      Populated->push_back(V);
  }

  for (size_t It = 0; It != Iterations; ++It) {
    OpSample Sample{0, 0};
    switch (Op) {
    case OperationKind::Populate:
      Sample = measurePerOp(Options.MinSampleNanos, Size, [&] {
        std::unique_ptr<ListImpl<Elem>> L = makeListImpl<Elem>(Variant);
        for (Elem V : Keys.Present)
          L->push_back(V);
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(L->size());
      });
      break;
    case OperationKind::Contains:
      Sample = measurePerOp(Options.MinSampleNanos, Size * 2, [&] {
        uint64_t Found = 0;
        for (size_t I = 0; I != Size; ++I) {
          Found += Populated->contains(Keys.Present[I]);
          Found += Populated->contains(Keys.Absent[I]);
        }
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Found);
      });
      break;
    case OperationKind::Iterate:
      Sample = measurePerOp(Options.MinSampleNanos, 1, [&] {
        uint64_t Sum = 0;
        Populated->forEach([&Sum](const Elem &V) {
          Sum += static_cast<uint64_t>(V);
        });
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Sum);
      });
      break;
    case OperationKind::IndexAccess:
      Sample = measurePerOp(Options.MinSampleNanos, Size, [&] {
        uint64_t Sum = 0;
        // A fixed stride visits all positions in shuffled-ish order
        // without per-access RNG cost.
        size_t Index = 0;
        for (size_t I = 0; I != Size; ++I) {
          Index = (Index + 7) % Size;
          Sum += static_cast<uint64_t>(Populated->at(Index));
        }
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Sum);
      });
      break;
    case OperationKind::Middle:
      Sample = measurePerOp(Options.MinSampleNanos, 2, [&] {
        Populated->insertAt(Populated->size() / 2, Keys.Absent[0]);
        Populated->removeAt(Populated->size() / 2);
      });
      break;
    case OperationKind::Remove:
      Sample = measurePerOp(Options.MinSampleNanos, 2, [&] {
        // Remove a present value, then re-add it to keep the size
        // stable; half the measured pair is a push_back, which slightly
        // and uniformly overestimates remove on all variants.
        Elem V = Keys.Present[MeasurementSink % Size];
        MeasurementSink =
            MeasurementSink + static_cast<uint64_t>(Populated->removeValue(V));
        Populated->push_back(V);
      });
      break;
    }
    if (It >= Options.WarmupIterations)
      EmitSample(timedSample(Options, VariantId::of(Variant), Op, Size,
                             Sample));
  }
}

//===----------------------------------------------------------------------===//
// Set scenarios
//===----------------------------------------------------------------------===//

void runSetScenarios(
    SetVariant Variant, OperationKind Op, size_t Size, SplitMix64 &Rng,
    const ModelBuildOptions &Options,
    const std::function<void(const OpSample &)> &EmitSample) {
  KeySet Keys(Rng, Size);
  size_t Iterations = Options.WarmupIterations + Options.MeasuredIterations;

  std::unique_ptr<SetImpl<Elem>> Populated = makeSetImpl<Elem>(Variant);
  if (Op != OperationKind::Populate)
    for (Elem V : Keys.Present)
      Populated->add(V);

  for (size_t It = 0; It != Iterations; ++It) {
    OpSample Sample{0, 0};
    switch (Op) {
    case OperationKind::Populate:
      Sample = measurePerOp(Options.MinSampleNanos, Size, [&] {
        std::unique_ptr<SetImpl<Elem>> S = makeSetImpl<Elem>(Variant);
        for (Elem V : Keys.Present)
          S->add(V);
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(S->size());
      });
      break;
    case OperationKind::Contains:
      Sample = measurePerOp(Options.MinSampleNanos, Size * 2, [&] {
        uint64_t Found = 0;
        for (size_t I = 0; I != Size; ++I) {
          Found += Populated->contains(Keys.Present[I]);
          Found += Populated->contains(Keys.Absent[I]);
        }
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Found);
      });
      break;
    case OperationKind::Iterate:
      Sample = measurePerOp(Options.MinSampleNanos, 1, [&] {
        uint64_t Sum = 0;
        Populated->forEach([&Sum](const Elem &V) {
          Sum += static_cast<uint64_t>(V);
        });
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Sum);
      });
      break;
    case OperationKind::Remove:
      Sample = measurePerOp(Options.MinSampleNanos, 2, [&] {
        Elem V = Keys.Present[MeasurementSink % Size];
        MeasurementSink =
            MeasurementSink + static_cast<uint64_t>(Populated->remove(V));
        Populated->add(V);
      });
      break;
    case OperationKind::IndexAccess:
    case OperationKind::Middle:
      // Not part of the set abstraction; no model is produced.
      return;
    }
    if (It >= Options.WarmupIterations)
      EmitSample(timedSample(Options, VariantId::of(Variant), Op, Size,
                             Sample));
  }
}

//===----------------------------------------------------------------------===//
// Map scenarios
//===----------------------------------------------------------------------===//

void runMapScenarios(
    MapVariant Variant, OperationKind Op, size_t Size, SplitMix64 &Rng,
    const ModelBuildOptions &Options,
    const std::function<void(const OpSample &)> &EmitSample) {
  KeySet Keys(Rng, Size);
  size_t Iterations = Options.WarmupIterations + Options.MeasuredIterations;

  std::unique_ptr<MapImpl<Elem, Elem>> Populated =
      makeMapImpl<Elem, Elem>(Variant);
  if (Op != OperationKind::Populate)
    for (Elem V : Keys.Present)
      Populated->put(V, V * 3);

  for (size_t It = 0; It != Iterations; ++It) {
    OpSample Sample{0, 0};
    switch (Op) {
    case OperationKind::Populate:
      Sample = measurePerOp(Options.MinSampleNanos, Size, [&] {
        std::unique_ptr<MapImpl<Elem, Elem>> M =
            makeMapImpl<Elem, Elem>(Variant);
        for (Elem V : Keys.Present)
          M->put(V, V * 3);
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(M->size());
      });
      break;
    case OperationKind::Contains:
      Sample = measurePerOp(Options.MinSampleNanos, Size * 2, [&] {
        uint64_t Found = 0;
        for (size_t I = 0; I != Size; ++I) {
          Found += Populated->get(Keys.Present[I]) != nullptr;
          Found += Populated->get(Keys.Absent[I]) != nullptr;
        }
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Found);
      });
      break;
    case OperationKind::Iterate:
      Sample = measurePerOp(Options.MinSampleNanos, 1, [&] {
        uint64_t Sum = 0;
        Populated->forEach([&Sum](const Elem &K, const Elem &V) {
          Sum += static_cast<uint64_t>(K) + static_cast<uint64_t>(V);
        });
        MeasurementSink = MeasurementSink + static_cast<uint64_t>(Sum);
      });
      break;
    case OperationKind::Remove:
      Sample = measurePerOp(Options.MinSampleNanos, 2, [&] {
        Elem K = Keys.Present[MeasurementSink % Size];
        MeasurementSink =
            MeasurementSink + static_cast<uint64_t>(Populated->remove(K));
        Populated->put(K, K * 3);
      });
      break;
    case OperationKind::IndexAccess:
    case OperationKind::Middle:
      return;
    }
    if (It >= Options.WarmupIterations)
      EmitSample(timedSample(Options, VariantId::of(Variant), Op, Size,
                             Sample));
  }
}

} // namespace

std::vector<size_t> ModelBuildOptions::paperSizes() {
  std::vector<size_t> Sizes;
  Sizes.push_back(10);
  for (size_t S = 50; S <= 1000; S += 50)
    Sizes.push_back(S);
  return Sizes;
}

ModelBuildOptions ModelBuildOptions::quick() {
  ModelBuildOptions Options;
  Options.Sizes = {10, 25, 50, 100, 200, 400, 700, 1000};
  Options.WarmupIterations = 1;
  Options.MeasuredIterations = 3;
  Options.MinSampleNanos = 50000;
  return Options;
}

ModelBuilder::ModelBuilder(ModelBuildOptions Opts)
    : Options(std::move(Opts)) {
  if (Options.Sizes.empty())
    Options.Sizes = ModelBuildOptions::paperSizes();
  // Injected times need no clock resolution: one execution per sample.
  if (Options.TimeCost)
    Options.MinSampleNanos = 0;
}

void ModelBuilder::report(const std::string &Line) {
  if (Progress)
    Progress(Line);
}

void ModelBuilder::fitAndStore(PerformanceModel &Model, VariantId Variant,
                               OperationKind Op,
                               const std::vector<double> &Sizes,
                               const std::vector<double> &TimeSamples,
                               const std::vector<double> &AllocSamples) {
  if (Sizes.size() < Options.PolynomialDegree + 1)
    return;
  Model.setCost(Variant, Op, CostDimension::Time,
                fitPolynomial(Sizes, TimeSamples, Options.PolynomialDegree));
  Model.setCost(Variant, Op, CostDimension::Alloc,
                fitPolynomial(Sizes, AllocSamples,
                              Options.PolynomialDegree));
  std::ostringstream OS;
  OS << Variant.name() << ' ' << operationKindName(Op) << ": time="
     << Model.cost(Variant, Op, CostDimension::Time).toString();
  report(OS.str());
}

void ModelBuilder::buildListModels(PerformanceModel &Model) {
  for (ListVariant Variant : AllListVariants) {
    // The concurrent tier is never calibrated here: single-threaded
    // timing of lock-based variants measures only the uncontended fast
    // path, and the resulting noisy rows would make the mutex-vs-
    // striped decision depend on calibration luck instead of the
    // contention model. Their rows always come from the analytic
    // defaults (augmentConcurrentCoverage).
    if (isConcurrentVariant(AbstractionKind::List,
                            static_cast<unsigned>(Variant)))
      continue;
    for (OperationKind Op : AllOperationKinds) {
      std::vector<double> Xs, Times, Allocs;
      SplitMix64 Rng(Options.Seed);
      for (size_t Size : Options.Sizes) {
        runListScenarios(Variant, Op, Size, Rng, Options,
                         [&](const OpSample &S) {
                           Xs.push_back(static_cast<double>(Size));
                           Times.push_back(S.Nanos);
                           Allocs.push_back(S.AllocBytes);
                         });
      }
      fitAndStore(Model, VariantId::of(Variant), Op, Xs, Times, Allocs);
    }
  }
}

void ModelBuilder::buildSetModels(PerformanceModel &Model) {
  for (SetVariant Variant : AllSetVariants) {
    // Concurrent tier: analytic rows only (see buildListModels).
    if (isConcurrentVariant(AbstractionKind::Set,
                            static_cast<unsigned>(Variant)))
      continue;
    for (OperationKind Op : AllOperationKinds) {
      std::vector<double> Xs, Times, Allocs;
      SplitMix64 Rng(Options.Seed);
      for (size_t Size : Options.Sizes) {
        runSetScenarios(Variant, Op, Size, Rng, Options,
                        [&](const OpSample &S) {
                          Xs.push_back(static_cast<double>(Size));
                          Times.push_back(S.Nanos);
                          Allocs.push_back(S.AllocBytes);
                        });
      }
      fitAndStore(Model, VariantId::of(Variant), Op, Xs, Times, Allocs);
    }
  }
}

void ModelBuilder::buildMapModels(PerformanceModel &Model) {
  for (MapVariant Variant : AllMapVariants) {
    // Concurrent tier: analytic rows only (see buildListModels).
    if (isConcurrentVariant(AbstractionKind::Map,
                            static_cast<unsigned>(Variant)))
      continue;
    for (OperationKind Op : AllOperationKinds) {
      std::vector<double> Xs, Times, Allocs;
      SplitMix64 Rng(Options.Seed);
      for (size_t Size : Options.Sizes) {
        runMapScenarios(Variant, Op, Size, Rng, Options,
                        [&](const OpSample &S) {
                          Xs.push_back(static_cast<double>(Size));
                          Times.push_back(S.Nanos);
                          Allocs.push_back(S.AllocBytes);
                        });
      }
      fitAndStore(Model, VariantId::of(Variant), Op, Xs, Times, Allocs);
    }
  }
}

PerformanceModel ModelBuilder::build() {
  PerformanceModel Model;
  buildListModels(Model);
  buildSetModels(Model);
  buildMapModels(Model);
  // Derive the energy dimension from the measured time/alloc models.
  deriveEnergyModel(Model);
  return Model;
}
