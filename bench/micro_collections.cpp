//===- micro_collections.cpp - google-benchmark microbenchmarks -----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Spot-check microbenchmarks over the variant library using
// google-benchmark: populate and contains for every variant at small and
// large sizes. These are the raw measurements behind the performance
// model's shape — handy for verifying that the orderings the model (and
// the paper) rely on hold on this machine:
//
//   bm_set_contains: Open < Compact < Chained at n=256,
//                    Array cheapest at n=16;
//   bm_list_contains: HashArrayList flat, ArrayList linear.
//
// bm_flat_scan times the flat-array membership scan itself, inline
// std::find (kernel 0) against the out-of-line AVX2 kernel (kernel 1),
// over lengths around collections/detail/FlatScan.h's cutover. Every
// element is looked up once present and once absent, like the model
// builder's contains scenario, either in order or shuffled.
//
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "collections/detail/FlatScan.h"
#include "support/Random.h"

#include <algorithm>

#include <benchmark/benchmark.h>

using namespace cswitch;

namespace {

std::vector<int64_t> keysFor(size_t N) {
  SplitMix64 Rng(5);
  return distinctIntegers(Rng, N, static_cast<int64_t>(N) * 8 + 64);
}

void bmListPopulate(benchmark::State &State) {
  auto Variant = static_cast<ListVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  for (auto _ : State) {
    auto L = makeListImpl<int64_t>(Variant);
    for (int64_t K : Keys)
      L->push_back(K);
    benchmark::DoNotOptimize(L->size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
  State.SetLabel(listVariantName(Variant));
}

void bmListContains(benchmark::State &State) {
  auto Variant = static_cast<ListVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto L = makeListImpl<int64_t>(Variant);
  for (int64_t K : Keys)
    L->push_back(K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(L->contains(Keys[I++ % N]));
  }
  State.SetLabel(listVariantName(Variant));
}

void bmSetPopulate(benchmark::State &State) {
  auto Variant = static_cast<SetVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  for (auto _ : State) {
    auto S = makeSetImpl<int64_t>(Variant);
    for (int64_t K : Keys)
      S->add(K);
    benchmark::DoNotOptimize(S->size());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N));
  State.SetLabel(setVariantName(Variant));
}

void bmSetContains(benchmark::State &State) {
  auto Variant = static_cast<SetVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto S = makeSetImpl<int64_t>(Variant);
  for (int64_t K : Keys)
    S->add(K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(S->contains(Keys[I++ % N]));
  }
  State.SetLabel(setVariantName(Variant));
}

void bmMapGet(benchmark::State &State) {
  auto Variant = static_cast<MapVariant>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Keys = keysFor(N);
  auto M = makeMapImpl<int64_t, int64_t>(Variant);
  for (int64_t K : Keys)
    M->put(K, K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(M->get(Keys[I++ % N]));
  }
  State.SetLabel(mapVariantName(Variant));
}

void bmFlatScan(benchmark::State &State) {
  bool Avx2 = State.range(0) != 0;
  size_t N = static_cast<size_t>(State.range(1));
  bool Shuffled = State.range(2) != 0;
  if (Avx2 && !detail::FlatScanHasAvx2) {
    State.SkipWithError("this CPU has no AVX2");
    return;
  }
  std::vector<int64_t> Keys = keysFor(N * 2);
  std::vector<int64_t> Data(Keys.begin(),
                            Keys.begin() + static_cast<ptrdiff_t>(N));
  // In order, the branch predictor learns where each scan stops; a
  // long random order keeps it from learning.
  std::vector<int64_t> Lookups = Keys;
  if (Shuffled) {
    SplitMix64 Rng(11);
    Lookups.resize(8192);
    for (int64_t &Key : Lookups)
      Key = Keys[Rng.nextBelow(Keys.size())];
  }
  size_t I = 0;
  for (auto _ : State) {
    int64_t Key = Lookups[I++ % Lookups.size()];
    size_t Found =
        Avx2 ? detail::findIndex64Avx2(Data.data(), N,
                                       static_cast<uint64_t>(Key))
             : static_cast<size_t>(
                   std::find(Data.data(), Data.data() + N, Key) -
                   Data.data());
    benchmark::DoNotOptimize(Found);
  }
  State.SetLabel(std::string(Avx2 ? "avx2" : "std::find") +
                (Shuffled ? " shuffled" : " in order"));
}

void registerAll() {
  for (int64_t Shuffled : {0, 1})
    for (int64_t Kernel : {0, 1})
      for (int64_t N : {4, 8, 12, 16, 24, 32, 48, 64, 128, 512})
        benchmark::RegisterBenchmark("bm_flat_scan", bmFlatScan)
            ->Args({Kernel, N, Shuffled})->MinTime(0.05);

  for (ListVariant V : AllListVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_list_populate", bmListPopulate)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
      benchmark::RegisterBenchmark("bm_list_contains", bmListContains)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
  for (SetVariant V : AllSetVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_set_populate", bmSetPopulate)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
      benchmark::RegisterBenchmark("bm_set_contains", bmSetContains)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
  for (MapVariant V : AllMapVariants) {
    for (int64_t N : {16, 256}) {
      benchmark::RegisterBenchmark("bm_map_get", bmMapGet)
          ->Args({static_cast<int64_t>(V), N})->MinTime(0.02);
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  registerAll();
  benchmark::Initialize(&Argc, Argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
