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

// The bag's hash splits into a 7-bit tag (the low bits, kept in the
// slot's control byte) and a start position (the bits above). The hashes
// below pin one part or the other.

/// Every value gets tag 0: only value comparison tells them apart.
struct ConstantTagHash {
  uint64_t operator()(int64_t V) const {
    return mix64(static_cast<uint64_t>(V)) << 7;
  }
};

/// Every probe starts at slot 13, so at capacity 16 the first group
/// covers slots 13..15 and 0..4 through the cloned control bytes.
struct ConstantStartHash {
  uint64_t operator()(int64_t V) const {
    return (uint64_t{13} << 7) | (mix64(static_cast<uint64_t>(V)) & 0x7f);
  }
};

/// The value is its own hash, so a test picks tag and start directly.
struct IdentityHash {
  uint64_t operator()(int64_t V) const { return static_cast<uint64_t>(V); }
};

TEST(HashBag, ConstantTagLeavesValueComparisonToDecide) {
  HashBag<int64_t, ConstantTagHash> Bag;
  std::unordered_map<int64_t, int> Ref;
  for (int64_t I = 0; I != 300; ++I) {
    Bag.addOne(I * 3);
    ++Ref[I * 3];
    if (I % 4 == 0) {
      Bag.addOne(I * 3);
      ++Ref[I * 3];
    }
  }
  expectMatches(Bag, Ref, 900);
  for (int64_t I = 0; I < 300; I += 2)
    removeEach(Bag, Ref, {I * 3}, 900);
  expectMatches(Bag, Ref, 900);
  EXPECT_FALSE(Bag.removeOne(1));
}

TEST(HashBag, ConstantStartWrapsThroughClonedControlBytes) {
  HashBag<int64_t, ConstantStartHash> Small;
  Small.addOne(-1);
  size_t FootprintAt16 = Small.memoryFootprint();

  HashBag<int64_t, ConstantStartHash> Bag;
  std::unordered_map<int64_t, int> Ref;
  // 12 values fill capacity 16 to its load limit: slots 13..15 and 0..4
  // (the first group, read across the end), then 5..8 (the second).
  for (int64_t I = 0; I != 12; ++I) {
    Bag.addOne(I);
    ++Ref[I];
  }
  ASSERT_EQ(Bag.memoryFootprint(), FootprintAt16);
  expectMatches(Bag, Ref, 40);
  // Holes in both groups, refilled by new values and re-found.
  removeEach(Bag, Ref, {0, 3, 7, 11}, 40);
  for (int64_t V : {20, 21, 22, 23}) {
    Bag.addOne(V);
    ++Ref[V];
  }
  ASSERT_EQ(Bag.memoryFootprint(), FootprintAt16);
  expectMatches(Bag, Ref, 40);
  // Growth re-places everything from the same start.
  for (int64_t I = 24; I != 40; ++I) {
    Bag.addOne(I);
    ++Ref[I];
  }
  EXPECT_GT(Bag.memoryFootprint(), FootprintAt16);
  expectMatches(Bag, Ref, 40);
  while (!Ref.empty())
    removeEach(Bag, Ref, {Ref.begin()->first}, 40);
}

TEST(HashBag, AdjacentTagsDifferingInLowestBitAreNotConfused) {
  // Tags 4 and 5 start at slot 0 and land in lanes 0 and 1. A lookup
  // for tag 4 matches lane 0 and, by the byte match's borrow, lane 1
  // too; neither holds the value looked for.
  constexpr int64_t Tag4 = 4, Tag5 = 5;
  constexpr int64_t AbsentTag4 = (int64_t{1} << 11) | 4; // start 0, tag 4
  constexpr int64_t AbsentTag5 = (int64_t{1} << 11) | 5; // start 0, tag 5
  HashBag<int64_t, IdentityHash> Bag;
  Bag.addOne(Tag4);
  Bag.addOne(Tag5);
  EXPECT_TRUE(Bag.contains(Tag4));
  EXPECT_TRUE(Bag.contains(Tag5));
  EXPECT_FALSE(Bag.contains(AbsentTag4));
  EXPECT_FALSE(Bag.removeOne(AbsentTag4));
  EXPECT_FALSE(Bag.contains(AbsentTag5));
  EXPECT_FALSE(Bag.removeOne(AbsentTag5));
  EXPECT_EQ(Bag.distinctSize(), 2u);
  // The lane-1 value is still found and removed by its own tag.
  EXPECT_TRUE(Bag.removeOne(Tag5));
  EXPECT_FALSE(Bag.contains(Tag5));
  EXPECT_TRUE(Bag.contains(Tag4));
  EXPECT_FALSE(Bag.contains(AbsentTag4));
}

TEST(HashBag, ChurnPurgesDeletedSlotsInsteadOfGrowing) {
  HashBag<int64_t> Grown;
  for (int64_t I = 0; I != 80; ++I)
    Grown.addOne(I);
  size_t Limit = Grown.memoryFootprint();

  // 40 live distinct values throughout: each cycle drops the oldest and
  // adds a new one, leaving a deleted slot behind.
  constexpr int64_t LiveCount = 40;
  HashBag<int64_t> Bag;
  for (int64_t I = 0; I != LiveCount; ++I)
    Bag.addOne(I);
  for (int64_t I = 0; I != 100000; ++I) {
    ASSERT_TRUE(Bag.removeOne(I));
    Bag.addOne(I + LiveCount);
    ASSERT_LE(Bag.memoryFootprint(), Limit) << I;
  }
  EXPECT_EQ(Bag.distinctSize(), static_cast<size_t>(LiveCount));
  for (int64_t V = 100000 - 8; V != 100000 + LiveCount + 8; ++V)
    ASSERT_EQ(Bag.contains(V), V >= 100000 && V < 100000 + LiveCount) << V;
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
