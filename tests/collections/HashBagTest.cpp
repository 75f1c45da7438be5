//===- HashBagTest.cpp - HashBag detail tests -------------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "collections/AdaptiveList.h"
#include "collections/HashArrayList.h"
#include "collections/detail/HashBag.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>

using namespace cswitch;
using cswitch::detail::HashBag;

namespace {

TEST(HashBag, CountsMultiplicity) {
  HashBag<int64_t> Bag;
  Bag.addOne(5);
  Bag.addOne(5);
  Bag.addOne(5);
  EXPECT_TRUE(Bag.contains(5));
  EXPECT_EQ(Bag.distinctSize(), 1u);
  EXPECT_TRUE(Bag.removeOne(5));
  EXPECT_TRUE(Bag.contains(5)); // two occurrences left.
  EXPECT_TRUE(Bag.removeOne(5));
  EXPECT_TRUE(Bag.removeOne(5));
  EXPECT_FALSE(Bag.contains(5));
  EXPECT_FALSE(Bag.removeOne(5));
  EXPECT_EQ(Bag.distinctSize(), 0u);
}

TEST(HashBag, EmptyBagBehaves) {
  HashBag<int64_t> Bag;
  EXPECT_FALSE(Bag.contains(1));
  EXPECT_FALSE(Bag.removeOne(1));
  EXPECT_EQ(Bag.distinctSize(), 0u);
  EXPECT_EQ(Bag.memoryFootprint(), 0u);
}

TEST(HashBag, GrowsAcrossRehashes) {
  HashBag<int64_t> Bag;
  for (int64_t I = 0; I != 2000; ++I)
    Bag.addOne(I);
  EXPECT_EQ(Bag.distinctSize(), 2000u);
  for (int64_t I = 0; I != 2000; ++I)
    EXPECT_TRUE(Bag.contains(I));
  EXPECT_FALSE(Bag.contains(2000));
  EXPECT_GT(Bag.memoryFootprint(), 2000 * sizeof(int64_t));
}

TEST(HashBag, ClearReleasesEverything) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  HashBag<int64_t> Bag;
  for (int64_t I = 0; I != 100; ++I)
    Bag.addOne(I);
  Bag.clear();
  EXPECT_EQ(Bag.distinctSize(), 0u);
  EXPECT_FALSE(Bag.contains(50));
  EXPECT_EQ(MemoryTracker::liveBytes(), LiveBefore);
  // Usable after clear.
  Bag.addOne(7);
  EXPECT_TRUE(Bag.contains(7));
}

TEST(HashBag, DifferentialAgainstUnorderedMapOfCounts) {
  SplitMix64 Rng(77);
  HashBag<int64_t> Bag;
  std::unordered_map<int64_t, int> Ref;
  for (int Op = 0; Op != 5000; ++Op) {
    int64_t V = static_cast<int64_t>(Rng.nextBelow(64));
    if (Rng.nextBelow(2) == 0) {
      Bag.addOne(V);
      ++Ref[V];
    } else {
      bool Removed = Bag.removeOne(V);
      auto It = Ref.find(V);
      if (It == Ref.end()) {
        EXPECT_FALSE(Removed);
      } else {
        EXPECT_TRUE(Removed);
        if (--It->second == 0)
          Ref.erase(It);
      }
    }
    if (Op % 512 == 0) {
      for (int64_t K = 0; K != 64; ++K)
        ASSERT_EQ(Bag.contains(K), Ref.count(K) > 0);
      ASSERT_EQ(Bag.distinctSize(), Ref.size());
    }
  }
}

/// Sends every value to bucket 0: one chain holds the whole bag.
struct OneBucketHash {
  uint64_t operator()(int64_t) const { return 0; }
};

/// Sends even values to bucket 0 and odd values to bucket 1.
struct ParityHash {
  uint64_t operator()(int64_t V) const { return static_cast<uint64_t>(V) & 1; }
};

/// Checks that \p Bag holds exactly the keys of \p Ref among [0, Limit).
template <typename BagT>
void expectMatches(const BagT &Bag,
                   const std::unordered_map<int64_t, int> &Ref, int64_t Limit) {
  ASSERT_EQ(Bag.distinctSize(), Ref.size());
  for (int64_t K = 0; K != Limit; ++K)
    ASSERT_EQ(Bag.contains(K), Ref.count(K) > 0) << K;
}

/// Removes one occurrence of each of \p Values from \p Bag and \p Ref,
/// checking the whole bag after every step.
template <typename BagT>
void removeEach(BagT &Bag, std::unordered_map<int64_t, int> &Ref,
                std::initializer_list<int64_t> Values, int64_t Limit) {
  for (int64_t V : Values) {
    ASSERT_TRUE(Bag.removeOne(V)) << V;
    if (--Ref[V] == 0)
      Ref.erase(V);
    expectMatches(Bag, Ref, Limit);
  }
}

TEST(HashBag, SingleChainSurvivesRehashesAndRemovals) {
  HashBag<int64_t, OneBucketHash> Bag;
  std::unordered_map<int64_t, int> Ref;
  for (int64_t I = 0; I != 100; ++I) {
    Bag.addOne(I);
    ++Ref[I];
  }
  Bag.addOne(42);
  ++Ref[42];
  expectMatches(Bag, Ref, 101);
  // The first-added, a middle and the last-added value: the hole sits at
  // the chain's tail, middle and head in turn, and the moved last node
  // always shares the chain. 42 goes in two steps.
  removeEach(Bag, Ref, {0, 50, 99, 42, 42, 1, 2, 98, 97, 3}, 101);
  EXPECT_FALSE(Bag.removeOne(42));
  while (!Ref.empty())
    removeEach(Bag, Ref, {Ref.begin()->first}, 101);
  EXPECT_FALSE(Bag.contains(5));
}

TEST(HashBag, MovedLastNodeRelinksInSameOrOtherChain) {
  HashBag<int64_t, ParityHash> Bag;
  std::unordered_map<int64_t, int> Ref;
  for (int64_t I = 0; I != 10; ++I) {
    Bag.addOne(I);
    ++Ref[I];
  }
  // The last node holds 9 (odd chain): removing 4 moves it into the even
  // chain's hole. Then the last node holds 8: removing 2 moves it within
  // the even chain. Removing 7, now the last node itself, moves nothing.
  removeEach(Bag, Ref, {4, 2, 7}, 10);
  // The moved nodes are still found for counting and removal.
  Bag.addOne(9);
  ++Ref[9];
  removeEach(Bag, Ref, {9, 8, 9}, 10);
  EXPECT_EQ(Bag.distinctSize(), 5u);
}

TEST(HashBag, RemovalsInterleavedWithRehashes) {
  HashBag<int64_t> Bag;
  std::unordered_map<int64_t, int> Ref;
  for (int64_t I = 0; I != 3000; ++I) {
    // Every value goes in twice; every third step drops a value added
    // earlier, so the table keeps crossing its load limit while holes
    // are being filled.
    Bag.addOne(I);
    Bag.addOne(I);
    Ref[I] += 2;
    if (I % 3 == 0) {
      int64_t Victim = I / 2;
      while (Ref.count(Victim)) {
        ASSERT_TRUE(Bag.removeOne(Victim));
        if (--Ref[Victim] == 0)
          Ref.erase(Victim);
      }
      EXPECT_FALSE(Bag.removeOne(Victim));
    }
  }
  expectMatches(Bag, Ref, 3100);
}

TEST(HashBag, StringElements) {
  // Long enough to live on the heap, so a botched node move shows up
  // under the sanitizers.
  auto Key = [](int I) {
    return "a-key-long-enough-to-defeat-sso-" + std::to_string(I);
  };
  HashBag<std::string> Bag;
  for (int I = 0; I != 300; ++I)
    Bag.addOne(Key(I % 200));
  EXPECT_EQ(Bag.distinctSize(), 200u);
  for (int I = 0; I < 200; I += 3)
    ASSERT_TRUE(Bag.removeOne(Key(I)));
  for (int I = 0; I != 200; ++I) {
    // Keys below 100 were added twice.
    bool Expected = I < 100 || I % 3 != 0;
    EXPECT_EQ(Bag.contains(Key(I)), Expected) << I;
  }
  EXPECT_FALSE(Bag.contains(Key(200)));
  EXPECT_FALSE(Bag.removeOne(Key(201)));
}

TEST(HashBag, WideRangeDifferentialAgainstUnorderedMap) {
  for (uint64_t Seed : {3u, 41u, 97u}) {
    SplitMix64 Rng(Seed);
    HashBag<int64_t> Bag;
    std::unordered_map<int64_t, int> Ref;
    constexpr int64_t Range = 4096;
    for (int Op = 0; Op != 12000; ++Op) {
      // A wide key range; adds outweigh removes so the bag grows through
      // several rehashes and keeps duplicates.
      int64_t V = static_cast<int64_t>(Rng.nextBelow(Range));
      if (Rng.nextBelow(5) < 3) {
        Bag.addOne(V);
        ++Ref[V];
      } else {
        auto It = Ref.find(V);
        ASSERT_EQ(Bag.removeOne(V), It != Ref.end());
        if (It != Ref.end() && --It->second == 0)
          Ref.erase(It);
      }
      if (Op % 1000 == 999)
        expectMatches(Bag, Ref, Range);
    }
    // Drain by the reference counts: each must be exact.
    for (auto [K, Count] : Ref) {
      for (int C = 0; C != Count; ++C)
        ASSERT_TRUE(Bag.removeOne(K));
      ASSERT_FALSE(Bag.removeOne(K));
    }
    EXPECT_EQ(Bag.distinctSize(), 0u);
  }
}

TEST(HashBag, LiveBytesReturnToBaseline) {
  int64_t Baseline = MemoryTracker::liveBytes();
  {
    HashBag<int64_t> Bag;
    for (int64_t I = 0; I != 1000; ++I)
      Bag.addOne(I % 700);
    // Every byte the bag owns is counted, and nothing else is.
    EXPECT_EQ(MemoryTracker::liveBytes() - Baseline,
              static_cast<int64_t>(Bag.memoryFootprint()));
    Bag.clear();
    EXPECT_EQ(MemoryTracker::liveBytes(), Baseline);
    EXPECT_EQ(Bag.memoryFootprint(), 0u);
    for (int64_t I = 0; I != 50; ++I)
      Bag.addOne(I);
    EXPECT_GT(MemoryTracker::liveBytes(), Baseline);
  }
  EXPECT_EQ(MemoryTracker::liveBytes(), Baseline);
}

TEST(HashBag, ReserveBuildsWithoutFurtherAllocation) {
  HashBag<int64_t> Bag;
  Bag.reserve(500);
  size_t Footprint = Bag.memoryFootprint();
  AllocationScope Scope;
  for (int64_t I = 0; I != 500; ++I)
    Bag.addOne(I * 7);
  EXPECT_EQ(Scope.allocatedInScope(), 0u);
  EXPECT_EQ(Bag.memoryFootprint(), Footprint);
  // Reserving less than the table holds is a no-op.
  Bag.reserve(10);
  EXPECT_EQ(Bag.memoryFootprint(), Footprint);
  for (int64_t I = 0; I != 500; ++I)
    ASSERT_TRUE(Bag.contains(I * 7));
}

/// Drives \p L and a std::vector through the same seeded mutations and
/// checks contents, order and membership against each other.
void differentialAgainstVector(ListImpl<int64_t> &L,
                               std::vector<int64_t> Ref, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  constexpr uint64_t Range = 300;
  auto Value = [&Rng] { return static_cast<int64_t>(Rng.nextBelow(Range)); };
  auto Has = [&Ref](int64_t V) {
    return std::find(Ref.begin(), Ref.end(), V) != Ref.end();
  };
  for (int Op = 0; Op != 4000; ++Op) {
    switch (Rng.nextBelow(9)) {
    case 0:
    case 1:
    case 2: {
      int64_t V = Value();
      L.push_back(V);
      Ref.push_back(V);
      break;
    }
    case 3: {
      size_t Pos = Rng.nextBelow(Ref.size() + 1);
      int64_t V = Value();
      L.insertAt(Pos, V);
      Ref.insert(Ref.begin() + static_cast<ptrdiff_t>(Pos), V);
      break;
    }
    case 4:
      if (!Ref.empty()) {
        size_t Pos = Rng.nextBelow(Ref.size());
        L.removeAt(Pos);
        Ref.erase(Ref.begin() + static_cast<ptrdiff_t>(Pos));
      }
      break;
    case 5:
    case 6: {
      int64_t V = Value();
      auto It = std::find(Ref.begin(), Ref.end(), V);
      ASSERT_EQ(L.removeValue(V), It != Ref.end()) << V;
      if (It != Ref.end())
        Ref.erase(It);
      break;
    }
    case 7:
      if (!Ref.empty()) {
        size_t Pos = Rng.nextBelow(Ref.size());
        int64_t V = Value();
        L.set(Pos, V);
        Ref[Pos] = V;
      }
      break;
    case 8: {
      int64_t V = Value();
      ASSERT_EQ(L.contains(V), Has(V)) << V;
      break;
    }
    }
    ASSERT_EQ(L.size(), Ref.size());
    if (Op % 500 != 499)
      continue;
    for (int64_t V = 0; V != static_cast<int64_t>(Range); ++V)
      ASSERT_EQ(L.contains(V), Has(V)) << V;
  }
  std::vector<int64_t> Snapshot;
  L.forEach([&Snapshot](const int64_t &V) { Snapshot.push_back(V); });
  EXPECT_EQ(Snapshot, Ref);
}

TEST(HashIndexedList, HashArrayListDifferentialAgainstVector) {
  for (uint64_t Seed : {5u, 6u, 7u}) {
    HashArrayListImpl<int64_t> L;
    differentialAgainstVector(L, {}, Seed);
  }
}

TEST(HashIndexedList, MigratedAdaptiveListDifferentialAgainstVector) {
  for (uint64_t Seed : {8u, 9u, 10u}) {
    AdaptiveListImpl<int64_t> L(/*Threshold=*/16);
    std::vector<int64_t> Ref;
    for (int64_t I = 0; I != 20; ++I) {
      L.push_back(I % 12); // duplicates present before the migration.
      Ref.push_back(I % 12);
    }
    ASSERT_TRUE(L.hasMigrated());
    differentialAgainstVector(L, Ref, Seed);
    EXPECT_TRUE(L.hasMigrated());
  }
}

} // namespace
