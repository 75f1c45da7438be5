//===- ConcurrentCollectionsTest.cpp - Concurrent tier tests ----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the concurrent collection tier (DESIGN.md §11): linearizable
/// operation smoke over the thread-safe implementations, snapshot
/// isolation of the copy-on-write list, shard-count edges, lock-free
/// lookups of the sharded map and the reclamation behind them, the
/// shard lock, the
/// contention sketch, the contention cost dimension, and the
/// Concurrency mode helpers. The multi-threaded tests double as the
/// TSan surface of the tier (run in CI under -fsanitize=thread).
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "collections/concurrent/ReadSide.h"
#include "collections/concurrent/ShardedHashMap.h"
#include "collections/concurrent/Sharding.h"
#include "collections/concurrent/SnapshotList.h"
#include "collections/concurrent/StripedHashSet.h"
#include "core/Switch.h"
#include "model/DefaultModel.h"
#include "profile/ContentionSketch.h"
#include "support/MemoryTracker.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

//===--------------------------------------------------------------------===//
// Linearizable operation smoke
//===--------------------------------------------------------------------===//

TEST(ConcurrentCollections, ShardedHashMapKeepsEveryDisjointWrite) {
  auto Map = makeMapImpl<int64_t, int64_t>(MapVariant::ShardedHashMap);
  constexpr int Threads = 4;
  constexpr int64_t PerThread = 4000;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Map, T] {
      for (int64_t I = 0; I != PerThread; ++I) {
        int64_t Key = T * PerThread + I;
        Map->put(Key, Key * 2);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Map->size(), static_cast<size_t>(Threads) * PerThread);
  for (int64_t Key = 0; Key != Threads * PerThread; ++Key) {
    const int64_t *Value = Map->get(Key);
    ASSERT_NE(Value, nullptr) << "lost key " << Key;
    EXPECT_EQ(*Value, Key * 2);
  }
}

TEST(ConcurrentCollections, ShardedHashMapMixedChurnStaysConsistent) {
  auto Map = makeMapImpl<int64_t, int64_t>(MapVariant::ShardedHashMap);
  std::atomic<int64_t> NetPuts{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Map, &NetPuts, T] {
      SplitMix64 Rng(static_cast<uint64_t>(T) + 11);
      for (int I = 0; I != 6000; ++I) {
        int64_t Key = static_cast<int64_t>(Rng.nextBelow(512));
        if (Rng.nextBool(0.6)) {
          // put() returns true only on a fresh insertion.
          if (Map->put(Key, Key))
            NetPuts.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (Map->remove(Key))
            NetPuts.fetch_sub(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(static_cast<int64_t>(Map->size()),
            NetPuts.load(std::memory_order_relaxed));
}

TEST(ConcurrentCollections, StripedHashSetChurnStaysConsistent) {
  auto Set = makeSetImpl<int64_t>(SetVariant::StripedHashSet);
  std::atomic<int64_t> NetAdds{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Set, &NetAdds, T] {
      SplitMix64 Rng(static_cast<uint64_t>(T) + 3);
      for (int I = 0; I != 6000; ++I) {
        int64_t V = static_cast<int64_t>(Rng.nextBelow(256));
        if (Rng.nextBool(0.55)) {
          if (Set->add(V))
            NetAdds.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (Set->remove(V))
            NetAdds.fetch_sub(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(static_cast<int64_t>(Set->size()),
            NetAdds.load(std::memory_order_relaxed));
}

TEST(ConcurrentCollections, MutexTierVariantsSurviveConcurrentUse) {
  auto List = makeListImpl<int64_t>(ListVariant::MutexList);
  auto Set = makeSetImpl<int64_t>(SetVariant::MutexHashSet);
  auto Map = makeMapImpl<int64_t, int64_t>(MapVariant::MutexHashMap);
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&, T] {
      for (int64_t I = 0; I != 2000; ++I) {
        int64_t V = T * 2000 + I;
        List->push_back(V);
        Set->add(V);
        Map->put(V, V);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(List->size(), 8000u);
  EXPECT_EQ(Set->size(), 8000u);
  EXPECT_EQ(Map->size(), 8000u);
}

//===--------------------------------------------------------------------===//
// Snapshot isolation
//===--------------------------------------------------------------------===//

TEST(ConcurrentCollections, SnapshotListIterationSeesConsistentPrefix) {
  auto List = makeListImpl<int64_t>(ListVariant::SnapshotList);
  // One writer appends 0, 1, 2, ...; any snapshot a traversal takes is
  // therefore exactly the prefix 0..k-1. A torn traversal would show a
  // gap, a reordering, or an element appearing mid-sweep.
  std::atomic<bool> Stop{false};
  std::thread Writer([&List, &Stop] {
    int64_t V = 0;
    while (!Stop.load(std::memory_order_relaxed) && V < 60000)
      List->push_back(V++);
  });
  for (int Sweep = 0; Sweep != 400; ++Sweep) {
    int64_t Expected = 0;
    bool Consistent = true;
    List->forEach([&Expected, &Consistent](const int64_t &V) {
      Consistent = Consistent && V == Expected;
      ++Expected;
    });
    EXPECT_TRUE(Consistent) << "torn snapshot at sweep " << Sweep;
  }
  Stop.store(true);
  Writer.join();
}

//===--------------------------------------------------------------------===//
// Shard-count edges
//===--------------------------------------------------------------------===//

TEST(ConcurrentCollections, ResolveShardCountRoundsAndClamps) {
  EXPECT_EQ(concurrent::resolveShardCount(1), 1u);
  EXPECT_EQ(concurrent::resolveShardCount(2), 2u);
  EXPECT_EQ(concurrent::resolveShardCount(3), 4u);
  EXPECT_EQ(concurrent::resolveShardCount(64), 64u);
  EXPECT_EQ(concurrent::resolveShardCount(1000), concurrent::MaxShards);
  // Auto: min(64, pow2(4 x hardware concurrency)).
  size_t Want = 4 * std::max(1u, std::thread::hardware_concurrency());
  size_t Expected = 1;
  while (Expected < Want && Expected < 64)
    Expected *= 2;
  EXPECT_EQ(concurrent::resolveShardCount(0), Expected);
}

TEST(ConcurrentCollections, ShardEdgesOneAndMaxBehaveIdentically) {
  for (size_t Shards : {size_t(1), concurrent::MaxShards}) {
    ShardedHashMapImpl<int64_t, int64_t> Map(Shards);
    StripedHashSetImpl<int64_t> Set(Shards);
    ASSERT_EQ(Map.shardCount(), Shards);
    ASSERT_EQ(Set.shardCount(), Shards);
    std::vector<std::thread> Workers;
    for (int T = 0; T != 4; ++T) {
      Workers.emplace_back([&, T] {
        for (int64_t I = 0; I != 2000; ++I) {
          int64_t V = T * 2000 + I;
          Map.put(V, -V);
          Set.add(V);
        }
      });
    }
    for (std::thread &W : Workers)
      W.join();
    EXPECT_EQ(Map.size(), 8000u) << Shards << " shards";
    EXPECT_EQ(Set.size(), 8000u) << Shards << " shards";
    for (int64_t V = 0; V < 8000; V += 97) {
      const int64_t *Found = Map.get(V);
      ASSERT_NE(Found, nullptr) << Shards << " shards, key " << V;
      EXPECT_EQ(*Found, -V);
      EXPECT_TRUE(Set.contains(V)) << Shards << " shards, value " << V;
    }
  }
}

//===--------------------------------------------------------------------===//
// Lock-free lookups of ShardedHashMap (DESIGN.md §11.4)
//===--------------------------------------------------------------------===//

/// Cached values are (key << 20) | tag, so a reader can check that the
/// value it found belongs to its key.
constexpr unsigned ValueShift = 20;

int64_t encodeValue(int64_t Key, int64_t Tag) {
  return (Key << ValueShift) | Tag;
}

TEST(ConcurrentCollections, ShardedHashMapLookupsDuringRehashAndClear) {
  using MapT = ShardedHashMapImpl<int64_t, int64_t>;
  static_assert(MapT::LockFreeReads, "int64 keys and values read lock-free");
  constexpr int64_t Stable = 256;     ///< Keys [0, Stable): never erased.
  constexpr int64_t ChurnBase = 1 << 12;
  constexpr int64_t Churn = 12000;    ///< Keys [ChurnBase, +Churn).
  constexpr int Readers = 4;
  MapT Map(4);
  for (int64_t Key = 0; Key != Stable; ++Key)
    Map.put(Key, encodeValue(Key, 0));

  // Phases of the writer; stable keys must be found until clear() starts.
  enum : int { Growing, Clearing, Done };
  std::atomic<int> Phase{Growing};
  std::atomic<int> Started{0};
  std::atomic<int64_t> BadValues{0}, LostStable{0}, Reads{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != Readers; ++T) {
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(static_cast<uint64_t>(T) + 71);
      bool Announced = false;
      while (Phase.load(std::memory_order_acquire) != Done) {
        for (int I = 0; I != 64; ++I) {
          bool StableKey = Rng.nextBool(0.5);
          int64_t Key = StableKey
                            ? static_cast<int64_t>(Rng.nextBelow(Stable))
                            : ChurnBase + static_cast<int64_t>(
                                              Rng.nextBelow(Churn));
          int64_t Value = 0;
          bool Found = I % 2 ? Map.lookup(Key, Value) : Map.containsKey(Key);
          if (Found && I % 2 && (Value >> ValueShift) != Key)
            BadValues.fetch_add(1, std::memory_order_relaxed);
          // Read after the lookup: if clear() had not started when the
          // lookup returned, a stable key must have been there.
          if (!Found && StableKey &&
              Phase.load(std::memory_order_seq_cst) == Growing)
            LostStable.fetch_add(1, std::memory_order_relaxed);
        }
        Reads.fetch_add(64, std::memory_order_relaxed);
        if (!Announced) {
          Announced = true;
          Started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  while (Started.load(std::memory_order_acquire) != Readers)
    std::this_thread::yield();

  // Grow from the stable keys through every rehash of each shard.
  for (int64_t I = 0; I != Churn; ++I)
    Map.put(ChurnBase + I, encodeValue(ChurnBase + I, 1));
  // Overwrite every churn value.
  for (int64_t I = 0; I != Churn; ++I)
    EXPECT_FALSE(Map.put(ChurnBase + I, encodeValue(ChurnBase + I, 2)));
  // Erase the lower half of the churn range (disjoint from the stable
  // keys).
  for (int64_t I = 0; I != Churn / 2; ++I)
    EXPECT_TRUE(Map.remove(ChurnBase + I));
  // Reuse tombstones: a re-inserted key takes the first tombstone on
  // its probe path, often another key's, so readers of that slot see
  // its key and value change under them.
  for (int Round = 0; Round != 4; ++Round) {
    for (int64_t I = 0; I != Churn / 2; ++I)
      EXPECT_TRUE(Map.put(ChurnBase + I, encodeValue(ChurnBase + I, 5)));
    for (int64_t I = 0; I != Churn / 2; ++I)
      EXPECT_TRUE(Map.remove(ChurnBase + I));
  }
  // Clear and refill.
  Phase.store(Clearing, std::memory_order_seq_cst);
  Map.clear();
  for (int64_t Key = 0; Key != Stable; ++Key)
    Map.put(Key, encodeValue(Key, 3));
  for (int64_t I = 0; I != Churn; I += 3)
    Map.put(ChurnBase + I, encodeValue(ChurnBase + I, 4));
  Phase.store(Done, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(BadValues.load(), 0) << "a lookup returned another key's value";
  EXPECT_EQ(LostStable.load(), 0) << "a never-erased key was not found";
  EXPECT_GE(Reads.load(), int64_t(Readers) * 64);
  EXPECT_EQ(Map.size(), static_cast<size_t>(Stable + (Churn + 2) / 3));
  for (int64_t Key = 0; Key != Stable; ++Key) {
    int64_t Value = 0;
    ASSERT_TRUE(Map.lookup(Key, Value)) << Key;
    EXPECT_EQ(Value, encodeValue(Key, 3));
  }
  for (int64_t I = 0; I != Churn; ++I) {
    int64_t Value = 0;
    ASSERT_EQ(Map.lookup(ChurnBase + I, Value), I % 3 == 0) << I;
    if (I % 3 == 0) {
      EXPECT_EQ(Value, encodeValue(ChurnBase + I, 4));
    }
  }
}

/// Slot bytes of \p Map's current tables: its footprint less that of an
/// empty map with as many shards.
size_t tableBytes(const ShardedHashMapImpl<int64_t, int64_t> &Map) {
  ShardedHashMapImpl<int64_t, int64_t> Empty(Map.shardCount());
  return Map.memoryFootprint() - Empty.memoryFootprint();
}

TEST(ConcurrentCollections, ShardedHashMapFreesRetiredTables) {
  // MemoryTracker counts per thread: this thread is the only writer, so
  // every table is allocated, and every retired one freed, here.
  const int64_t Baseline = MemoryTracker::liveBytes();
  for (bool WriteAfterReaders : {true, false}) {
    {
      ShardedHashMapImpl<int64_t, int64_t> Map(4);
      std::atomic<bool> Stop{false};
      std::atomic<int> Started{0};
      std::vector<std::thread> Readers;
      for (int T = 0; T != 2; ++T) {
        Readers.emplace_back([&, T] {
          SplitMix64 Rng(static_cast<uint64_t>(T) + 5);
          bool Announced = false;
          while (!Stop.load(std::memory_order_acquire)) {
            int64_t Value = 0;
            Map.lookup(static_cast<int64_t>(Rng.nextBelow(8192)), Value);
            if (!Announced) {
              Announced = true;
              Started.fetch_add(1, std::memory_order_release);
            }
          }
        });
      }
      while (Started.load(std::memory_order_acquire) != 2)
        std::this_thread::yield();
      for (int64_t Key = 0; Key != 8192; ++Key)
        Map.put(Key, Key);
      Map.clear();
      for (int64_t Key = 0; Key != 3000; ++Key)
        Map.put(Key, -Key);
      Stop.store(true, std::memory_order_release);
      for (std::thread &R : Readers)
        R.join();

      if (WriteAfterReaders) {
        // Later writes drive reclamation: with no reader left, every
        // retired table goes.
        for (int64_t Key = 0; Key != 3; ++Key)
          Map.put(Key, Key);
        EXPECT_EQ(MemoryTracker::liveBytes() - Baseline,
                  static_cast<int64_t>(tableBytes(Map)));
        Map.clear();
        Map.put(1, 1);
        EXPECT_EQ(MemoryTracker::liveBytes() - Baseline,
                  static_cast<int64_t>(tableBytes(Map)));
      }
    } // Without later writes, the destructor frees what is left.
    EXPECT_EQ(MemoryTracker::liveBytes(), Baseline)
        << (WriteAfterReaders ? "after later writes" : "destructor only");
  }
}

TEST(ConcurrentCollections, ShardedHashMapFootprintMatchesLockedTables) {
  // The footprint is the lock-based layout's: the instance, the shard
  // array and 17 bytes a slot, with each shard's capacity following
  // the sequential open-addressing table through the same operations.
  constexpr size_t Shards = 8;
  ShardedHashMapImpl<int64_t, int64_t> Map(Shards);
  ShardedHashMapImpl<int64_t, int64_t> Empty(Shards);
  EXPECT_EQ(sizeof(Map), 4 * sizeof(void *));
  std::vector<detail::OpenHashMapTable<int64_t, int64_t, 1, 2>> Tables(Shards);
  auto Expected = [&] {
    size_t Total = Empty.memoryFootprint();
    for (const auto &T : Tables)
      Total += T.memoryFootprint();
    return Total;
  };
  auto TableOf = [&](int64_t Key) -> auto & {
    return Tables[concurrent::shardOfHash(DefaultHash<int64_t>{}(Key),
                                          Shards)];
  };
  EXPECT_EQ(Map.memoryFootprint(), Expected());
  SplitMix64 Rng(29);
  for (int Step = 0; Step != 20000; ++Step) {
    int64_t Key = static_cast<int64_t>(Rng.nextBelow(3000));
    if (Rng.nextBool(0.6)) {
      EXPECT_EQ(Map.put(Key, Step), TableOf(Key).insertOrAssign(Key, Step));
    } else {
      EXPECT_EQ(Map.remove(Key), TableOf(Key).erase(Key));
    }
    if (Step == 12000) {
      Map.clear();
      for (auto &T : Tables)
        T.clear();
      Map.reserve(1000);
      for (auto &T : Tables)
        T.reserve((1000 + Shards - 1) / Shards);
    }
    if (Step % 500 == 0) {
      ASSERT_EQ(Map.memoryFootprint(), Expected()) << "step " << Step;
    }
  }
  EXPECT_EQ(Map.memoryFootprint(), Expected());
}

TEST(ConcurrentCollections, ShardedHashMapStringKeysChurnUnderLock) {
  using MapT = ShardedHashMapImpl<std::string, int64_t>;
  static_assert(!MapT::LockFreeReads, "string keys keep the locked reads");
  MapT Map(4);
  std::atomic<int64_t> NetPuts{0}, BadValues{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(static_cast<uint64_t>(T) + 41);
      for (int I = 0; I != 4000; ++I) {
        int64_t Id = static_cast<int64_t>(Rng.nextBelow(600));
        std::string Key = "session-" + std::to_string(Id);
        uint64_t Op = Rng.nextBelow(4);
        int64_t Value = 0;
        if (Op == 0) {
          if (Map.put(Key, encodeValue(Id, T)))
            NetPuts.fetch_add(1, std::memory_order_relaxed);
        } else if (Op == 1) {
          if (Map.remove(Key))
            NetPuts.fetch_sub(1, std::memory_order_relaxed);
        } else if (Op == 2) {
          if (Map.lookup(Key, Value) && (Value >> ValueShift) != Id)
            BadValues.fetch_add(1, std::memory_order_relaxed);
        } else {
          Map.containsKey(Key);
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(BadValues.load(), 0);
  EXPECT_EQ(static_cast<int64_t>(Map.size()), NetPuts.load());
  size_t Seen = 0;
  Map.forEach([&](const std::string &Key, const int64_t &Value) {
    ++Seen;
    EXPECT_EQ("session-" + std::to_string(Value >> ValueShift), Key);
  });
  EXPECT_EQ(Seen, Map.size());
}

TEST(ConcurrentCollections, ShardedHashMapOverwritesStayMonotonicUnderLookups) {
  // Overwrites of a live key leave the seqlock version alone: readers
  // must still see only values of the key they asked for, and one
  // reader must never see a key's sequence go backwards, while another
  // writer forces rehashes, erases and re-inserts around the hot keys.
  using MapT = ShardedHashMapImpl<int64_t, int64_t>;
  constexpr int HotWriters = 2;
  constexpr int64_t HotPerWriter = 32;
  constexpr int64_t HotKeys = HotWriters * HotPerWriter; ///< [0, HotKeys).
  constexpr int64_t Passes = 3000; ///< Sequences 1..Passes per hot key.
  constexpr int64_t ChurnBase = 1 << 12;
  constexpr int64_t Churn = 6000; ///< Keys [ChurnBase, +Churn).
  constexpr int Readers = 3;
  constexpr int64_t SeqMask = (int64_t(1) << ValueShift) - 1;
  MapT Map(4);
  for (int64_t Key = 0; Key != HotKeys; ++Key)
    Map.put(Key, encodeValue(Key, 0));

  std::atomic<int> WritersLeft{HotWriters + 1};
  std::atomic<int> Started{0};
  std::atomic<int64_t> BadValues{0}, Backwards{0}, LostHot{0}, Reads{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Readers; ++T) {
    Threads.emplace_back([&, T] {
      std::vector<int64_t> LastSeq(HotKeys, 0);
      SplitMix64 Rng(static_cast<uint64_t>(T) + 113);
      bool Announced = false;
      while (WritersLeft.load(std::memory_order_acquire) != 0) {
        for (int I = 0; I != 64; ++I) {
          bool Hot = Rng.nextBool(0.75);
          int64_t Key = Hot ? static_cast<int64_t>(Rng.nextBelow(HotKeys))
                            : ChurnBase + static_cast<int64_t>(
                                              Rng.nextBelow(Churn));
          int64_t Value = 0;
          if (!Map.lookup(Key, Value)) {
            if (Hot)
              LostHot.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if ((Value >> ValueShift) != Key) {
            BadValues.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (!Hot)
            continue;
          int64_t Seq = Value & SeqMask;
          if (Seq < LastSeq[Key])
            Backwards.fetch_add(1, std::memory_order_relaxed);
          LastSeq[Key] = Seq;
        }
        Reads.fetch_add(64, std::memory_order_relaxed);
        if (!Announced) {
          Announced = true;
          Started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  while (Started.load(std::memory_order_acquire) != Readers)
    std::this_thread::yield();

  for (int W = 0; W != HotWriters; ++W) {
    Threads.emplace_back([&, W] {
      for (int64_t Seq = 1; Seq <= Passes; ++Seq)
        for (int64_t I = 0; I != HotPerWriter; ++I) {
          int64_t Key = W * HotPerWriter + I;
          if (Map.put(Key, encodeValue(Key, Seq)))
            LostHot.fetch_add(1, std::memory_order_relaxed);
        }
      WritersLeft.fetch_sub(1, std::memory_order_release);
    });
  }
  Threads.emplace_back([&] {
    // Grow every shard through its rehashes, then erase and re-insert
    // the lower half a few times, so hot keys share shards with
    // structural changes (and new keys land in tombstones).
    for (int64_t I = 0; I != Churn; ++I)
      Map.put(ChurnBase + I, encodeValue(ChurnBase + I, 1));
    for (int Round = 0; Round != 4; ++Round) {
      for (int64_t I = 0; I != Churn / 2; ++I)
        Map.remove(ChurnBase + I);
      for (int64_t I = 0; I != Churn / 2; ++I)
        Map.put(ChurnBase + I, encodeValue(ChurnBase + I, 2 + Round));
    }
    WritersLeft.fetch_sub(1, std::memory_order_release);
  });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(BadValues.load(), 0) << "a lookup returned another key's value";
  EXPECT_EQ(Backwards.load(), 0) << "a key's sequence went backwards";
  EXPECT_EQ(LostHot.load(), 0) << "a hot key was missing or re-inserted";
  EXPECT_GE(Reads.load(), int64_t(Readers) * 64);
  EXPECT_EQ(Map.size(), static_cast<size_t>(HotKeys + Churn));
  for (int64_t Key = 0; Key != HotKeys; ++Key) {
    int64_t Value = 0;
    ASSERT_TRUE(Map.lookup(Key, Value)) << Key;
    EXPECT_EQ(Value, encodeValue(Key, Passes));
  }
}

/// A block that records when the domain frees it.
struct TrackedBlock : concurrent::Retired {
  explicit TrackedBlock(bool &Freed) : Freed(Freed) {
    Free = [](concurrent::Retired *R) {
      auto *B = static_cast<TrackedBlock *>(R);
      B->Freed = true;
      delete B;
    };
  }
  bool &Freed;
};

TEST(ConcurrentCollections, GraceDomainFreesOnlyAfterReadersLeave) {
  concurrent::GraceDomain Domain;

  // No reader: one reclaim call runs both flips and frees the block.
  bool FreedIdle = false;
  Domain.retire(new TrackedBlock(FreedIdle));
  EXPECT_TRUE(Domain.hasRetired());
  Domain.tryReclaim();
  EXPECT_TRUE(FreedIdle);
  EXPECT_FALSE(Domain.hasRetired());

  // A reader inside before the retirement holds the block...
  bool Freed = false;
  auto Early = Domain.enter();
  Domain.retire(new TrackedBlock(Freed));
  Domain.tryReclaim();
  EXPECT_FALSE(Freed);
  // ...and a reader that enters after the first flip delays the second,
  // so the block stays until both have left.
  auto Late = Domain.enter();
  Domain.leave(Early);
  Domain.tryReclaim();
  EXPECT_FALSE(Freed);
  Domain.leave(Late);
  Domain.tryReclaim();
  EXPECT_TRUE(Freed);

  // What is still retired at destruction is freed by the destructor.
  bool FreedAtEnd = false;
  {
    concurrent::GraceDomain Scoped;
    auto Reader = Scoped.enter();
    Scoped.retire(new TrackedBlock(FreedAtEnd));
    Scoped.tryReclaim();
    EXPECT_FALSE(FreedAtEnd);
    Scoped.leave(Reader);
  }
  EXPECT_TRUE(FreedAtEnd);
}

TEST(ConcurrentCollections, ShardLockExcludesAndWakesParkedWaiters) {
  concurrent::ShardLock Lock;

  // Mutual exclusion: a plain counter under the lock ends exact.
  constexpr int Threads = 8;
  constexpr int64_t Rounds = 20000;
  int64_t Counter = 0;
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&] {
      for (int64_t I = 0; I != Rounds; ++I) {
        std::lock_guard<concurrent::ShardLock> Guard(Lock);
        ++Counter;
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Counter, Threads * Rounds);

  // try_lock fails while the lock is held and succeeds after.
  Lock.lock();
  bool TakenWhileHeld = true;
  std::thread([&] { TakenWhileHeld = Lock.try_lock(); }).join();
  EXPECT_FALSE(TakenWhileHeld);
  Lock.unlock();
  ASSERT_TRUE(Lock.try_lock());
  Lock.unlock();

  // A waiter that spins past the limit marks the lock and parks; the
  // unlock wakes it and it takes the lock.
  Lock.lock();
  std::atomic<bool> Acquired{false};
  std::thread Waiter([&] {
    std::lock_guard<concurrent::ShardLock> Guard(Lock);
    Acquired.store(true, std::memory_order_relaxed);
  });
  while (!Lock.hasWaiters())
    std::this_thread::yield();
  EXPECT_FALSE(Acquired.load(std::memory_order_relaxed));
  Lock.unlock();
  Waiter.join();
  EXPECT_TRUE(Acquired.load(std::memory_order_relaxed));
  EXPECT_FALSE(Lock.hasWaiters());
  EXPECT_TRUE(Lock.try_lock());
  Lock.unlock();
}

//===--------------------------------------------------------------------===//
// Contention sketch
//===--------------------------------------------------------------------===//

TEST(ContentionSketch, EstimatesDistinctThreads) {
  ContentionSketch Sketch;
  EXPECT_EQ(Sketch.estimateThreads(), 0.0);
  for (int I = 0; I != 300; ++I)
    Sketch.observe();
  EXPECT_GE(Sketch.operations(), 300u);
  double Solo = Sketch.estimateThreads();
  EXPECT_GE(Solo, 1.0);
  EXPECT_LT(Solo, 1.6);

  Sketch.reset();
  EXPECT_EQ(Sketch.operations(), 0u);
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T)
    Workers.emplace_back([&Sketch] {
      for (int I = 0; I != 300; ++I)
        Sketch.observe();
    });
  for (std::thread &W : Workers)
    W.join();
  // Linear counting over 64 buckets: 4 distinct thread ids estimate
  // close to 4, lower only when ids collide into one bucket.
  double Crowd = Sketch.estimateThreads();
  EXPECT_GE(Crowd, 2.0);
  EXPECT_LE(Crowd, 8.0);
}

TEST(ContentionSketch, CountsEveryOperationFromEightThreads) {
  ContentionSketch Sketch;
  std::vector<std::thread> Workers;
  for (uint64_t T = 0; T != 8; ++T)
    Workers.emplace_back([&Sketch, T] {
      for (int I = 0; I != 5000; ++I)
        Sketch.observe(T + 1);
    });
  for (std::thread &W : Workers)
    W.join();
  // Threads 1..8 recorded 5000 observations of their ordinal each.
  EXPECT_EQ(Sketch.operations(), 5000u * (8 * 9 / 2));
  double Crowd = Sketch.estimateThreads();
  EXPECT_GE(Crowd, 2.0);
  EXPECT_LE(Crowd, 16.0);
}

//===--------------------------------------------------------------------===//
// Contention cost dimension
//===--------------------------------------------------------------------===//

/// Per-op cost of \p V under the analysis fold: time at \p Size plus the
/// contention polynomial at \p Threads (what analyzeRound adds when the
/// context is contended).
double contendedCost(const PerformanceModel &Model, MapVariant V,
                     OperationKind Op, double Size, double Threads) {
  VariantId Id = VariantId::of(V);
  return Model.operationCost(Id, Op, CostDimension::Time, Size) +
         Model.operationCost(Id, Op, CostDimension::Contention, Threads);
}

TEST(ContentionModel, MutexWinsSequentiallyShardedWinsContended) {
  PerformanceModel Model = defaultPerformanceModel();
  // The session-server read-heavy mix: 80% lookups, 20% inserts.
  auto MixCost = [&](MapVariant V, double Threads) {
    return 0.8 * contendedCost(Model, V, OperationKind::Contains, 1024,
                               Threads) +
           0.2 * contendedCost(Model, V, OperationKind::Populate, 1024,
                               Threads);
  };
  // One thread: the striping overhead is pure waste, the mutex strategy
  // must win by enough that the 0.8 ratio rule keeps it.
  EXPECT_LT(MixCost(MapVariant::MutexHashMap, 1.0),
            0.8 * MixCost(MapVariant::ShardedHashMap, 1.0));
  // Two or more threads: the convoying mutex loses to striping, again
  // decisively enough for the ratio rule to switch.
  for (double Threads : {2.0, 4.0, 8.0, 16.0}) {
    EXPECT_LT(MixCost(MapVariant::ShardedHashMap, Threads),
              0.8 * MixCost(MapVariant::MutexHashMap, Threads))
        << Threads << " threads";
  }
}

TEST(ContentionModel, AugmentBackfillsConcurrentRows) {
  // A model calibrated before the concurrent tier existed (or by the
  // sequential-only ModelBuilder): no concurrent variants, no
  // contention cells.
  PerformanceModel Model;
  Model.setCost(VariantId::of(MapVariant::ChainedHashMap),
                OperationKind::Contains, CostDimension::Time,
                Polynomial({5.0}));
  ASSERT_FALSE(Model.hasVariant(VariantId::of(MapVariant::MutexHashMap)));
  augmentConcurrentCoverage(Model);
  for (MapVariant V : {MapVariant::MutexHashMap, MapVariant::ShardedHashMap})
    EXPECT_TRUE(Model.hasVariant(VariantId::of(V))) << mapVariantName(V);
  // The measured cell is untouched; the grafted contention polynomial
  // charges nothing at one thread and grows from two on.
  EXPECT_DOUBLE_EQ(
      Model.operationCost(VariantId::of(MapVariant::ChainedHashMap),
                          OperationKind::Contains, CostDimension::Time, 64),
      5.0);
  double AtOne = Model.operationCost(VariantId::of(MapVariant::MutexHashMap),
                                     OperationKind::Contains,
                                     CostDimension::Contention, 1.0);
  double AtFour = Model.operationCost(VariantId::of(MapVariant::MutexHashMap),
                                      OperationKind::Contains,
                                      CostDimension::Contention, 4.0);
  EXPECT_DOUBLE_EQ(AtOne, 0.0);
  EXPECT_GT(AtFour, 0.0);
}

//===--------------------------------------------------------------------===//
// Concurrency mode helpers
//===--------------------------------------------------------------------===//

TEST(ConcurrencyTier, CandidateMasksSelectTheRightPools) {
  for (AbstractionKind Kind :
       {AbstractionKind::List, AbstractionKind::Set, AbstractionKind::Map}) {
    unsigned Mutex = concurrentInitialVariant(Kind, Concurrency::Mutex);
    unsigned Sharded = concurrentInitialVariant(Kind, Concurrency::Sharded);
    EXPECT_EQ(Mutex, firstConcurrentVariant(Kind));
    EXPECT_EQ(Sharded, Mutex + 1);
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::Mutex),
              1u << Mutex);
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::Sharded),
              1u << Sharded);
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::Auto),
              (1u << Mutex) | (1u << Sharded));
    // The sequential pool is exactly the variants below the tier, and
    // Auto starts on the mutex strategy (cheapest when uncontended).
    EXPECT_EQ(concurrencyCandidateMask(Kind, Concurrency::None),
              (1u << Mutex) - 1);
    EXPECT_EQ(concurrentInitialVariant(Kind, Concurrency::Auto), Mutex);
    for (unsigned V = 0; V != numVariantsOf(Kind); ++V)
      EXPECT_EQ(isConcurrentVariant(Kind, V), V >= Mutex);
  }
}

TEST(ConcurrencyTier, AutoContextSwitchesToShardedUnderContention) {
  ContextOptions Opts = ContextOptions{}
                            .windowSize(4)
                            .finishedRatio(0.5)
                            .logEvents(false)
                            .concurrency(Concurrency::Auto);
  auto Ctx = Switch::makeContext<Map<int64_t, int64_t>>(
      "test:contended-cache", MapVariant::ChainedHashMap,
      SelectionRule::timeRule(), Opts);
  // Auto coerces the sequential initial variant into the tier.
  EXPECT_EQ(static_cast<MapVariant>(Ctx->currentVariantIndex()),
            MapVariant::MutexHashMap);
  for (int Generation = 0; Generation != 4; ++Generation) {
    {
      auto Shared = Ctx->createMap();
      std::vector<std::thread> Workers;
      for (int T = 0; T != 4; ++T) {
        Workers.emplace_back([&Shared, T] {
          for (int64_t I = 0; I != 2000; ++I) {
            int64_t Key = T * 2000 + I;
            Shared.put(Key, Key);
            int64_t Out = 0;
            Shared.lookup(Key, Out);
          }
        });
      }
      for (std::thread &W : Workers)
        W.join();
    } // Retire the generation so its profile publishes.
    Ctx->evaluate();
  }
  EXPECT_GT(Ctx->contendedThreads(), 1.0);
  EXPECT_GE(Ctx->switchCount(), 1u);
  EXPECT_EQ(static_cast<MapVariant>(Ctx->currentVariantIndex()),
            MapVariant::ShardedHashMap);
}

} // namespace
