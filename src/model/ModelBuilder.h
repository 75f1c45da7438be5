//===- ModelBuilder.h - Benchmark-driven model construction -----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The performance model builder (paper §4.1): runs a factorial plan of
/// microbenchmarks — every collection variant × critical operation ×
/// collection size, with uniformly distributed 64-bit integer data
/// (paper Table 3) — measuring nanoseconds and allocated bytes per
/// operation, and fits cubic polynomials by least squares. The resulting
/// PerformanceModel is what allocation contexts consult at runtime.
///
/// Building the full model takes seconds to minutes depending on the
/// options; production deployments run it once per target machine via
/// `bench/model_builder` and persist the result.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_MODEL_MODELBUILDER_H
#define CSWITCH_MODEL_MODELBUILDER_H

#include "model/CostModel.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cswitch {

/// Options of the factorial measurement plan.
struct ModelBuildOptions {
  /// Collection sizes to measure (paper Table 3: [10, 50, 100, .., 1000]).
  std::vector<size_t> Sizes;
  /// Unmeasured executions per (variant, op, size) point.
  size_t WarmupIterations = 2;
  /// Measured executions per point; each contributes one fit sample.
  size_t MeasuredIterations = 8;
  /// Minimum wall time of one measured sample, for clock resolution.
  uint64_t MinSampleNanos = 200000;
  /// Degree of the fitted cost polynomials (paper: 3).
  size_t PolynomialDegree = 3;
  /// Seed of all generated workloads.
  uint64_t Seed = 42;
  /// Deterministic time source: nanoseconds per operation of a
  /// (variant, operation, size) point. Unset, every sample is timed on
  /// the wall clock. Set, it supplies every time sample and each sample
  /// runs its scenario once, for the allocation count only, so the fit
  /// can be checked independently of machine load; the wall-clock
  /// properties are gated by `bench/model_builder --check`.
  std::function<double(VariantId, OperationKind, size_t)> TimeCost;

  /// The paper's plan: sizes {10, 50, 100, 150, ..., 1000}.
  static std::vector<size_t> paperSizes();

  /// A reduced plan for tests: fewer sizes and iterations.
  static ModelBuildOptions quick();
};

/// Builds a PerformanceModel by benchmarking the variants on this machine.
class ModelBuilder {
public:
  explicit ModelBuilder(ModelBuildOptions Options = {});

  /// Benchmarks every abstraction and returns the fitted model.
  PerformanceModel build();

  /// Benchmarks only the named abstraction into \p Model.
  void buildListModels(PerformanceModel &Model);
  void buildSetModels(PerformanceModel &Model);
  void buildMapModels(PerformanceModel &Model);

  /// Progress callback: invoked with a human-readable line per measured
  /// (variant, operation) pair. Off by default.
  void setProgressCallback(std::function<void(const std::string &)> Cb) {
    Progress = std::move(Cb);
  }

private:
  void fitAndStore(PerformanceModel &Model, VariantId Variant,
                   OperationKind Op, const std::vector<double> &Sizes,
                   const std::vector<double> &TimeSamples,
                   const std::vector<double> &AllocSamples);
  void report(const std::string &Line);

  ModelBuildOptions Options;
  std::function<void(const std::string &)> Progress;
};

} // namespace cswitch

#endif // CSWITCH_MODEL_MODELBUILDER_H
