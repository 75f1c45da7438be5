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
// bm_hash_bag times the lookup index of HashArrayList and AdaptiveList
// (collections/detail/HashBag.h) per operation: building a bag of n
// distinct keys one addOne at a time and destroying it, as an index does
// over a list's life; contains over a 22%-hit mix; removeOne of every
// key in shuffled order, which times the removals only; and h2's
// IndexCursor loop (apps/H2Sim.cpp): a bag of n values drawn from
// [0, 4n), with n from h2's bimodal sizes, then 1000 probes drawn from
// the same range (about 75% miss), timed together and reported per probe.
//
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "collections/detail/FlatScan.h"
#include "collections/detail/HashBag.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>

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

/// Probes per IndexCursor in h2 (apps/H2Sim.cpp).
constexpr size_t H2ProbesPerCursor = 1000;

enum class BagOp { Build, Contains, Remove, H2Probe };

void bmHashBag(benchmark::State &State) {
  auto Op = static_cast<BagOp>(State.range(0));
  size_t N = static_cast<size_t>(State.range(1));
  std::vector<int64_t> Pool = keysFor(N * 8);
  std::vector<int64_t> Keys(Pool.begin(),
                            Pool.begin() + static_cast<ptrdiff_t>(N));
  SplitMix64 Rng(13);
  using Clock = std::chrono::steady_clock;
  double Total = 0;
  auto Seconds = [&Total](Clock::time_point From) {
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - From).count();
    Total += Elapsed;
    return Elapsed;
  };

  // Operations timed per iteration; ns_per_op divides by it.
  size_t OpsPerIteration = Op == BagOp::H2Probe ? H2ProbesPerCursor : N;

  if (Op == BagOp::H2Probe) {
    for (auto _ : State) {
      size_t Size = Rng.nextBelow(7) == 0 ? 250 + Rng.nextBelow(251)
                                          : 10 + Rng.nextBelow(111);
      auto Start = Clock::now();
      {
        detail::HashBag<int64_t> Bag;
        for (size_t I = 0; I != Size; ++I)
          Bag.addOne(static_cast<int64_t>(Rng.nextBelow(Size * 4)));
        size_t Hits = 0;
        for (size_t Probe = 0; Probe != H2ProbesPerCursor; ++Probe)
          Hits += Bag.contains(static_cast<int64_t>(Rng.nextBelow(Size * 4)));
        benchmark::DoNotOptimize(Hits);
      }
      State.SetIterationTime(Seconds(Start));
    }
  } else if (Op == BagOp::Contains) {
    detail::HashBag<int64_t> Bag;
    for (int64_t K : Keys)
      Bag.addOne(K);
    // 22% of the lookups hit; misses come from keys never added.
    std::vector<int64_t> Lookups(8192);
    for (int64_t &Key : Lookups)
      Key = Rng.nextBelow(100) < 22 ? Keys[Rng.nextBelow(N)]
                                    : Pool[N + Rng.nextBelow(Pool.size() - N)];
    size_t I = 0;
    for (auto _ : State) {
      auto Start = Clock::now();
      for (size_t J = 0; J != N; ++J)
        benchmark::DoNotOptimize(Bag.contains(Lookups[I++ % Lookups.size()]));
      State.SetIterationTime(Seconds(Start));
    }
  } else if (Op == BagOp::Build) {
    for (auto _ : State) {
      auto Start = Clock::now();
      {
        detail::HashBag<int64_t> Bag;
        for (int64_t K : Keys)
          Bag.addOne(K);
        benchmark::DoNotOptimize(Bag.distinctSize());
      }
      State.SetIterationTime(Seconds(Start));
    }
  } else {
    std::vector<int64_t> Order = Keys;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    for (auto _ : State) {
      detail::HashBag<int64_t> Bag;
      for (int64_t K : Keys)
        Bag.addOne(K);
      auto Start = Clock::now();
      for (int64_t K : Order)
        benchmark::DoNotOptimize(Bag.removeOne(K));
      State.SetIterationTime(Seconds(Start));
    }
  }
  State.counters["ns_per_op"] =
      Total * 1e9 /
      (static_cast<double>(OpsPerIteration) *
       static_cast<double>(State.iterations()));
  static const char *const Names[] = {"build", "contains 22% hit",
                                      "removeOne", "h2 build + probes"};
  State.SetLabel(Names[static_cast<int>(Op)]);
}

void registerAll() {
  for (BagOp Op : {BagOp::Build, BagOp::Contains, BagOp::Remove})
    for (int64_t N : {16, 64, 128, 512})
      benchmark::RegisterBenchmark("bm_hash_bag", bmHashBag)
          ->Args({static_cast<int64_t>(Op), N})
          ->UseManualTime()
          ->MinTime(0.05);
  // The h2 case draws its own sizes; its n argument is unused.
  benchmark::RegisterBenchmark("bm_hash_bag", bmHashBag)
      ->Args({static_cast<int64_t>(BagOp::H2Probe), 0})
      ->UseManualTime()
      ->MinTime(0.2);

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
