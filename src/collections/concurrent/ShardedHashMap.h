//===- ShardedHashMap.h - Lock-striped hash map variant ---------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-striped strategy of the concurrent map tier (DESIGN.md §11):
/// a power-of-two array of independently locked open-addressing shards,
/// ConcurrentHashMap-style. Keys are routed by the top bits of the same
/// hash the in-shard tables consume from the bottom, so threads hitting
/// different keys contend with probability ~1/shards. The size is a
/// lock-free atomic maintained by the mutating operations (the facade
/// reads it after every mutation).
///
/// Like ConcurrentHashMap's get(), lookup() and containsKey() take no
/// lock when keys and values are seqlock-readable (DESIGN.md §11.4):
/// they probe the shard's published block with relaxed atomic loads and
/// validate the result against the shard's seqlock version, falling back
/// to the lock after a few failed attempts. Writers lock the shard (a
/// spin-then-park concurrent::ShardLock) and retire replaced blocks to a
/// per-instance grace domain (concurrent/ReadSide.h) instead of freeing
/// them. Only structural stores (a slot changing its key, a block being
/// published) move the version: an overwrite of a live key's value is
/// one atomic store that readers never retry for.
///
/// See MutexHashMap.h for the tier-wide thread-safety contract.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_SHARDEDHASHMAP_H
#define CSWITCH_COLLECTIONS_CONCURRENT_SHARDEDHASHMAP_H

#include "collections/MapInterface.h"
#include "collections/concurrent/ReadSide.h"
#include "collections/concurrent/Sharding.h"
#include "collections/detail/OpenHashTable.h"
#include "support/MemoryTracker.h"
#include "support/OrderingFence.h"
#include "support/Topology.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace cswitch {

/// Lock-striped open-addressing map (MapVariant::ShardedHashMap).
template <typename K, typename V>
class ShardedHashMapImpl : public MapImpl<K, V> {
public:
  /// Whether lookup() and containsKey() run without the shard lock: a
  /// property of the types, not a setting. Other types keep the locked
  /// read path.
  static constexpr bool LockFreeReads =
      concurrent::SeqlockReadable<K> && concurrent::SeqlockReadable<V>;

  /// \p Shards = 0 uses the process-wide ContentionPolicy knob; any
  /// value is rounded to a power of two in [1, concurrent::MaxShards].
  explicit ShardedHashMapImpl(size_t Shards = 0)
      : NumShards(Shards ? concurrent::resolveShardCount(Shards)
                         : concurrent::configuredShardCount()),
        Lanes(std::make_unique<Shard[]>(NumShards)),
        Side(std::make_unique<WriteSide>()) {}

  bool put(const K &Key, const V &Value) override {
    uint64_t Hash = DefaultHash<K>{}(Key);
    Shard &S = shardOf(Hash);
    bool Inserted;
    {
      std::lock_guard<concurrent::ShardLock> Lock(S.Lock);
      Inserted = S.insertOrAssign(Key, Value, Hash, Side->Grace);
      if (Inserted)
        Side->Count.Value.fetch_add(1, std::memory_order_relaxed);
    }
    reclaim();
    return Inserted;
  }

  const V *get(const K &Key) const override {
    uint64_t Hash = DefaultHash<K>{}(Key);
    Shard &S = shardOf(Hash);
    std::lock_guard<concurrent::ShardLock> Lock(S.Lock);
    return S.find(Key, Hash);
  }

  V *getMutable(const K &Key) override {
    uint64_t Hash = DefaultHash<K>{}(Key);
    Shard &S = shardOf(Hash);
    std::lock_guard<concurrent::ShardLock> Lock(S.Lock);
    return const_cast<V *>(S.find(Key, Hash));
  }

  bool lookup(const K &Key, V &Out) const override {
    uint64_t Hash = DefaultHash<K>{}(Key);
    const Shard &S = shardOf(Hash);
    auto [Found, Value] = readShard(S, [&] {
      const V *Slot = S.find(Key, Hash);
      return std::pair(Slot != nullptr,
                       Slot ? concurrent::loadSlot(*Slot) : V());
    });
    if (Found)
      Out = std::move(Value);
    return Found;
  }

  bool containsKey(const K &Key) const override {
    uint64_t Hash = DefaultHash<K>{}(Key);
    const Shard &S = shardOf(Hash);
    return readShard(S, [&] { return S.find(Key, Hash) != nullptr; });
  }

  bool remove(const K &Key) override {
    uint64_t Hash = DefaultHash<K>{}(Key);
    Shard &S = shardOf(Hash);
    bool Erased;
    {
      std::lock_guard<concurrent::ShardLock> Lock(S.Lock);
      Erased = S.erase(Key, Hash);
      if (Erased)
        Side->Count.Value.fetch_sub(1, std::memory_order_relaxed);
    }
    reclaim();
    return Erased;
  }

  size_t size() const override {
    return Side->Count.Value.load(std::memory_order_relaxed);
  }

  void clear() override {
    // Shard-at-a-time: concurrent writers of other shards proceed; the
    // count is decremented per shard so it never goes stale negative.
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<concurrent::ShardLock> Lock(Lanes[I].Lock);
      Side->Count.Value.fetch_sub(Lanes[I].Count, std::memory_order_relaxed);
      Lanes[I].clear(Side->Grace);
    }
    reclaim();
  }

  /// Shard-at-a-time traversal: each shard is consistent under its own
  /// lock; mutations of not-yet-visited shards may or may not be seen.
  void forEach(FunctionRef<void(const K &, const V &)> Fn) const override {
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<concurrent::ShardLock> Lock(Lanes[I].Lock);
      Lanes[I].forEach(Fn);
    }
  }

  void reserve(size_t N) override {
    size_t PerShard = (N + NumShards - 1) / NumShards;
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<concurrent::ShardLock> Lock(Lanes[I].Lock);
      Lanes[I].reserve(PerShard, Side->Grace);
    }
    reclaim();
  }

  /// The instance, its shard array and the shards' slot arrays (17
  /// bytes a slot for 8-byte keys and values): the figure the locked
  /// layout reported for the same contents. The write side (size
  /// counter and grace domain) and each block's header are fixed costs
  /// that do not grow with the contents, and are left out.
  size_t memoryFootprint() const override {
    size_t Total = sizeof(*this) + NumShards * sizeof(Shard);
    for (size_t I = 0; I != NumShards; ++I) {
      std::lock_guard<concurrent::ShardLock> Lock(Lanes[I].Lock);
      if (const Block *B = Lanes[I].current())
        Total += Block::slotBytes(B->capacity());
    }
    return Total;
  }

  MapVariant variant() const override { return MapVariant::ShardedHashMap; }

  std::unique_ptr<MapImpl<K, V>> cloneEmpty() const override {
    return std::make_unique<ShardedHashMapImpl<K, V>>(NumShards);
  }

  /// Number of lock stripes (for tests and footprint accounting).
  size_t shardCount() const { return NumShards; }

private:
  /// Seqlock attempts of a lock-free read before it takes the lock.
  static constexpr unsigned ReadAttempts = 4;

  /// One generation of a shard's slots, in one allocation: this header,
  /// then the keys, values and slot states. Readers reach it through the
  /// shard's published pointer; a rehash or clear retires it to the
  /// grace domain instead of freeing it when readers may hold it.
  struct Block : concurrent::Retired {
    size_t Mask = 0;
    K *Keys = nullptr;
    V *Vals = nullptr;
    uint8_t *States = nullptr;

    size_t capacity() const { return Mask + 1; }

    /// Slot bytes of a block of \p Capacity, the figure MemoryTracker
    /// and memoryFootprint() account.
    static size_t slotBytes(size_t Capacity) {
      return Capacity * (sizeof(K) + sizeof(V) + sizeof(uint8_t));
    }

    static constexpr size_t Align =
        std::max({alignof(concurrent::Retired), alignof(size_t), alignof(K),
                  alignof(V)});

    static size_t alignUp(size_t N, size_t A) { return (N + A - 1) / A * A; }

    /// A block of \p Capacity empty slots (a power of two).
    static Block *create(size_t Capacity) {
      assert((Capacity & (Capacity - 1)) == 0 && "capacity not pow2");
      size_t KeysAt = alignUp(sizeof(Block), alignof(K));
      size_t ValsAt = alignUp(KeysAt + Capacity * sizeof(K), alignof(V));
      size_t StatesAt = ValsAt + Capacity * sizeof(V);
      char *Raw = static_cast<char *>(
          ::operator new(StatesAt + Capacity, std::align_val_t(Align)));
      Block *B = new (Raw) Block;
      B->Mask = Capacity - 1;
      B->Keys = reinterpret_cast<K *>(Raw + KeysAt);
      B->Vals = reinterpret_cast<V *>(Raw + ValsAt);
      B->States = reinterpret_cast<uint8_t *>(Raw + StatesAt);
      std::uninitialized_value_construct_n(B->Keys, Capacity);
      std::uninitialized_value_construct_n(B->Vals, Capacity);
      std::memset(B->States, detail::SlotEmpty, Capacity);
      B->Free = &Block::destroy;
      MemoryTracker::recordAlloc(slotBytes(Capacity));
      return B;
    }

    static void destroy(concurrent::Retired *R) {
      Block *B = static_cast<Block *>(R);
      size_t Capacity = B->capacity();
      std::destroy_n(B->Keys, Capacity);
      std::destroy_n(B->Vals, Capacity);
      B->~Block();
      ::operator delete(static_cast<void *>(B), std::align_val_t(Align));
      MemoryTracker::recordFree(slotBytes(Capacity));
    }
  };

  /// One lock stripe in two cache lines, so two shards never share one.
  /// The first holds what every lookup reads (the seqlock version and
  /// the published block), the second what every write takes (the lock
  /// and the counts): a write that changes no key leaves the readers'
  /// line alone. The probing mirrors detail::OpenHashMapTable at load
  /// factor 1/2, so capacities (and footprints) match the sequential
  /// maps'.
  struct alignas(CacheLineBytes) Shard {
    /// Odd while a writer changes which key a slot holds or which block
    /// is published.
    std::atomic<uint64_t> Version{0};
    /// The block readers probe; null while the shard is empty.
    std::atomic<Block *> Published{nullptr};

    alignas(CacheLineBytes) mutable concurrent::ShardLock Lock;
    size_t Count = 0;    ///< Full slots; guarded by Lock.
    size_t Occupied = 0; ///< Full + tombstone slots; guarded by Lock.

    Shard() = default;
    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;
    ~Shard() {
      if (Block *B = current())
        Block::destroy(B);
    }

    Block *current() const { return Published.load(std::memory_order_relaxed); }

    /// The value slot of \p Key, or nullptr. Under the lock the result
    /// is exact; without it, the caller validates it with the version.
    /// The probe is bounded by the capacity, so a concurrent writer can
    /// never keep a reader probing.
    const V *find(const K &Key, uint64_t Hash) const {
      const Block *B = Published.load(std::memory_order_seq_cst);
      if (!B)
        return nullptr;
      size_t Index = Hash & B->Mask;
      for (size_t Step = 0; Step <= B->Mask; ++Step) {
        uint8_t State = concurrent::loadSlot(B->States[Index]);
        if (State == detail::SlotEmpty)
          return nullptr;
        if (State == detail::SlotFull &&
            concurrent::loadSlot(B->Keys[Index]) == Key)
          return &B->Vals[Index];
        Index = (Index + 1) & B->Mask;
      }
      return nullptr;
    }

    /// Returns true if the key was new. Caller holds the lock.
    bool insertOrAssign(const K &Key, const V &Value, uint64_t Hash,
                        concurrent::GraceDomain &Grace) {
      growIfNeeded(Grace);
      Block *B = current();
      auto [Index, Found] = probe(*B, Key, Hash);
      if (Found) {
        // The slot keeps its key and the value word is one atomic
        // store, so a validated reader returns the old or the new
        // value: the version stays even.
        concurrent::storeSlot(B->Vals[Index], Value);
        return false;
      }
      StructuralWrite Write(*this);
      concurrent::storeSlot(B->Keys[Index], Key);
      concurrent::storeSlot(B->Vals[Index], Value);
      if (B->States[Index] == detail::SlotEmpty)
        ++Occupied;
      concurrent::storeSlot(B->States[Index], uint8_t(detail::SlotFull));
      ++Count;
      return true;
    }

    /// Returns true if the key was present. Caller holds the lock.
    bool erase(const K &Key, uint64_t Hash) {
      Block *B = current();
      if (!B)
        return false;
      auto [Index, Found] = probe(*B, Key, Hash);
      if (!Found)
        return false;
      StructuralWrite Write(*this);
      concurrent::storeSlot(B->States[Index], uint8_t(detail::SlotTombstone));
      --Count;
      return true;
    }

    void clear(concurrent::GraceDomain &Grace) {
      if (current())
        replace(nullptr, Grace);
      Count = Occupied = 0;
    }

    void forEach(FunctionRef<void(const K &, const V &)> Fn) const {
      const Block *B = current();
      for (size_t I = 0, E = B ? B->capacity() : 0; I != E; ++I)
        if (B->States[I] == detail::SlotFull)
          Fn(B->Keys[I], B->Vals[I]);
    }

    void reserve(size_t N, concurrent::GraceDomain &Grace) {
      size_t Needed = InitialCapacity;
      while (Needed < N * 2)
        Needed *= 2;
      const Block *B = current();
      if (Needed > (B ? B->capacity() : 0))
        rehash(Needed, Grace);
    }

  private:
    static constexpr size_t InitialCapacity = 8;

    /// The seqlock bracket of a structural store: the version is odd
    /// from before the writer's first such store until after its last
    /// (the EventLog slot protocol, DESIGN.md §6.1).
    class StructuralWrite {
    public:
      explicit StructuralWrite(Shard &S) : S(S) {
        if constexpr (LockFreeReads) {
          S.Version.store(S.Version.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
          orderingFence(std::memory_order_release);
        }
      }
      ~StructuralWrite() {
        if constexpr (LockFreeReads)
          S.Version.store(S.Version.load(std::memory_order_relaxed) + 1,
                          std::memory_order_release);
      }

    private:
      Shard &S;
    };

    /// Where \p Key sits in \p B, or where inserting it would put it
    /// (the first tombstone on its probe path, else the empty slot that
    /// ends the path). The load factor keeps an empty slot in every
    /// block. Caller holds the lock.
    struct Probe {
      size_t Index;
      bool Found;
    };
    static Probe probe(const Block &B, const K &Key, uint64_t Hash) {
      size_t Index = Hash & B.Mask;
      size_t FirstTombstone = SIZE_MAX;
      while (true) {
        uint8_t State = B.States[Index];
        if (State == detail::SlotEmpty)
          return {FirstTombstone != SIZE_MAX ? FirstTombstone : Index, false};
        if (State == detail::SlotFull && B.Keys[Index] == Key)
          return {Index, true};
        if (State == detail::SlotTombstone && FirstTombstone == SIZE_MAX)
          FirstTombstone = Index;
        Index = (Index + 1) & B.Mask;
      }
    }

    /// Load factor 1/2 over full + tombstone slots, as OpenHashMapTable.
    void growIfNeeded(concurrent::GraceDomain &Grace) {
      const Block *B = current();
      if (!B) {
        rehash(InitialCapacity, Grace);
        return;
      }
      if ((Occupied + 1) * 2 <= B->capacity())
        return;
      // Double only while the live count needs it; a same-size rehash
      // purges tombstones without inflating the footprint.
      size_t NewCapacity = B->capacity();
      while ((Count + 1) * 2 > NewCapacity)
        NewCapacity *= 2;
      rehash(NewCapacity, Grace);
    }

    /// Builds a block of \p NewCapacity privately, then publishes it.
    void rehash(size_t NewCapacity, concurrent::GraceDomain &Grace) {
      Block *Fresh = Block::create(NewCapacity);
      if (const Block *Old = current()) {
        for (size_t I = 0, E = Old->capacity(); I != E; ++I) {
          if (Old->States[I] != detail::SlotFull)
            continue;
          size_t Index = DefaultHash<K>{}(Old->Keys[I]) & Fresh->Mask;
          while (Fresh->States[Index] != detail::SlotEmpty)
            Index = (Index + 1) & Fresh->Mask;
          Fresh->Keys[Index] = Old->Keys[I];
          Fresh->Vals[Index] = Old->Vals[I];
          Fresh->States[Index] = detail::SlotFull;
        }
      }
      replace(Fresh, Grace);
      Occupied = Count;
    }

    /// Publishes \p Fresh (seq_cst, see GraceDomain::enter) and retires
    /// the block it replaces, or frees it when no reader can hold it.
    void replace(Block *Fresh, concurrent::GraceDomain &Grace) {
      Block *Old;
      {
        StructuralWrite Write(*this);
        Old = Published.exchange(Fresh, std::memory_order_seq_cst);
      }
      if (!Old)
        return;
      if constexpr (LockFreeReads)
        Grace.retire(Old);
      else
        Block::destroy(Old);
    }
  };

  static_assert(sizeof(Shard) == 2 * CacheLineBytes,
                "the readers' line and the writers' line, nothing more");

  /// What writes touch, out of line: every operation reads the
  /// instance's own fields (vptr, NumShards, Lanes, Side), so the size
  /// counter and the retire state live on lines of their own.
  struct WriteSide {
    concurrent::GraceDomain Grace;
    concurrent::LineCounter Count;
  };

  Shard &shardOf(uint64_t Hash) const {
    return Lanes[concurrent::shardOfHash(Hash, NumShards)];
  }

  /// Runs \p Read, a probe of \p S, without the lock and returns its
  /// result once the shard's version shows that no writer overlapped
  /// it. After ReadAttempts tries, or for types that are not
  /// seqlock-readable, runs it under the lock.
  template <typename ReadFn>
  auto readShard(const Shard &S, ReadFn Read) const {
    if constexpr (LockFreeReads) {
      concurrent::ReadSection Section(Side->Grace);
      for (unsigned Attempt = 0; Attempt != ReadAttempts; ++Attempt) {
        uint64_t Before = S.Version.load(std::memory_order_acquire);
        if (Before & 1)
          continue;
        auto Result = Read();
        orderingFence(std::memory_order_acquire);
        if (S.Version.load(std::memory_order_relaxed) == Before)
          return Result;
      }
    }
    std::lock_guard<concurrent::ShardLock> Lock(S.Lock);
    return Read();
  }

  /// Frees retired blocks no reader can hold; called after a write has
  /// released its shard lock, and never waits.
  void reclaim() {
    if constexpr (LockFreeReads)
      if (Side->Grace.hasRetired())
        Side->Grace.tryReclaim();
  }

  const size_t NumShards;
  std::unique_ptr<Shard[]> Lanes;
  std::unique_ptr<WriteSide> Side;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_SHARDEDHASHMAP_H
