//===- ModelBuilderTest.cpp - Model builder integration tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests of the benchmark-driven model builder. These run
/// real (tiny) measurements, so assertions stay qualitative: costs are
/// positive, array scans grow with size, allocating operations report
/// bytes. They are sized to finish in well under a second. The scan-growth
/// and array-versus-hash checks run on an injected deterministic time
/// source; their wall-clock form is the `bench/model_builder --check` gate.
///
//===----------------------------------------------------------------------===//

#include "model/DefaultModel.h"
#include "model/ModelBuilder.h"

#include <gtest/gtest.h>

using namespace cswitch;

namespace {

ModelBuildOptions tinyOptions() {
  ModelBuildOptions Options;
  Options.Sizes = {8, 64, 256, 512};
  Options.WarmupIterations = 0;
  Options.MeasuredIterations = 1;
  Options.MinSampleNanos = 3000;
  Options.PolynomialDegree = 2;
  return Options;
}

TEST(ModelBuildOptions, PaperSizesMatchTable3) {
  std::vector<size_t> Sizes = ModelBuildOptions::paperSizes();
  ASSERT_EQ(Sizes.size(), 21u);
  EXPECT_EQ(Sizes.front(), 10u);
  EXPECT_EQ(Sizes[1], 50u);
  EXPECT_EQ(Sizes[2], 100u);
  EXPECT_EQ(Sizes.back(), 1000u);
}

TEST(ModelBuilder, ListModelsCoverEverySequentialVariantAndOp) {
  ModelBuilder Builder(tinyOptions());
  PerformanceModel Model;
  Builder.buildListModels(Model);
  for (ListVariant V : AllListVariants) {
    // The concurrent tier is analytic-only: single-threaded timing of
    // lock-based variants would only measure the uncontended fast path.
    if (isConcurrentVariant(AbstractionKind::List,
                            static_cast<unsigned>(V))) {
      EXPECT_FALSE(Model.hasVariant(VariantId::of(V)))
          << listVariantName(V);
      continue;
    }
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V)));
    for (OperationKind Op : AllOperationKinds)
      EXPECT_FALSE(Model.cost(VariantId::of(V), Op, CostDimension::Time)
                       .coefficients()
                       .empty())
          << listVariantName(V) << " " << operationKindName(Op);
  }
  // augmentConcurrentCoverage grafts the missing tier from the
  // analytic defaults — the calibrated model becomes whole.
  augmentConcurrentCoverage(Model);
  for (ListVariant V : AllListVariants)
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V))) << listVariantName(V);
}

/// A deterministic stand-in for the wall clock: the plan's contains
/// scenario looks up one present and one absent key per element, so an
/// array scan compares 0.75 n + 0.25 elements per lookup on average;
/// every other point costs a flat 5 ns.
double arrayScanCost(VariantId Variant, OperationKind Op, size_t Size) {
  bool Scans = Variant == VariantId::of(ListVariant::ArrayList) ||
               Variant == VariantId::of(MapVariant::ArrayMap);
  if (Scans && Op == OperationKind::Contains)
    return 2.0 + 0.25 * (0.75 * static_cast<double>(Size) + 0.25);
  return 5.0;
}

// The fit must carry a linear scan's growth from size 8 to 512. The
// same property on wall-clock samples is `bench/model_builder --check`.
TEST(ModelBuilder, MeasuredArrayListContainsGrowsWithSize) {
  ModelBuildOptions Options = tinyOptions();
  Options.TimeCost = arrayScanCost;
  ModelBuilder Builder(Options);
  PerformanceModel Model;
  Builder.buildListModels(Model);
  VariantId Id = VariantId::of(ListVariant::ArrayList);
  double Small =
      Model.operationCost(Id, OperationKind::Contains,
                          CostDimension::Time, 8);
  double Large =
      Model.operationCost(Id, OperationKind::Contains,
                          CostDimension::Time, 512);
  EXPECT_GT(Large, Small * 4);
  // Exact linear samples are reproduced exactly by the quadratic fit.
  EXPECT_NEAR(Small, arrayScanCost(Id, OperationKind::Contains, 8), 1e-3);
  EXPECT_NEAR(Large, arrayScanCost(Id, OperationKind::Contains, 512), 1e-3);
}

TEST(ModelBuilder, MeasuredPopulateAllocatesBytes) {
  ModelBuilder Builder(tinyOptions());
  PerformanceModel Model;
  Builder.buildSetModels(Model);
  for (SetVariant V : AllSetVariants) {
    if (isConcurrentVariant(AbstractionKind::Set,
                            static_cast<unsigned>(V)))
      continue; // Analytic-only, never measured.
    double Bytes = Model.operationCost(VariantId::of(V),
                                       OperationKind::Populate,
                                       CostDimension::Alloc, 256);
    EXPECT_GT(Bytes, 0.0) << setVariantName(V);
    // Sanity ceiling: no set allocates a kilobyte per inserted int64.
    EXPECT_LT(Bytes, 1024.0) << setVariantName(V);
  }
}

// The same property on wall-clock samples is the second gate of
// `bench/model_builder --check`.
TEST(ModelBuilder, MapModelsReportHashCheaperThanArrayAtLargeSize) {
  ModelBuildOptions Options = tinyOptions();
  Options.TimeCost = arrayScanCost;
  ModelBuilder Builder(Options);
  PerformanceModel Model;
  Builder.buildMapModels(Model);
  double ArrayCost = Model.operationCost(
      VariantId::of(MapVariant::ArrayMap), OperationKind::Contains,
      CostDimension::Time, 512);
  double HashCost = Model.operationCost(
      VariantId::of(MapVariant::OpenHashMap), OperationKind::Contains,
      CostDimension::Time, 512);
  EXPECT_GT(ArrayCost, HashCost * 2);
}

TEST(ModelBuilder, ProgressCallbackFires) {
  ModelBuildOptions Options = tinyOptions();
  Options.Sizes = {8, 32, 64};
  ModelBuilder Builder(Options);
  int Lines = 0;
  Builder.setProgressCallback([&Lines](const std::string &Line) {
    EXPECT_FALSE(Line.empty());
    ++Lines;
  });
  PerformanceModel Model;
  Builder.buildListModels(Model);
  // One line per measured (variant, op) pair; the concurrent tier is
  // skipped (analytic-only).
  size_t Sequential = 0;
  for (ListVariant V : AllListVariants)
    if (!isConcurrentVariant(AbstractionKind::List,
                             static_cast<unsigned>(V)))
      ++Sequential;
  EXPECT_EQ(Lines, static_cast<int>(Sequential * NumOperationKinds));
}

} // namespace
