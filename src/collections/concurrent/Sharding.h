//===- Sharding.h - Shard sizing/selection of the concurrent tier -*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared shard arithmetic of the lock-striped collection variants
/// (DESIGN.md §11): resolving the shard count from the process-wide
/// ContentionPolicy, mapping a key hash to a shard, and the shard lock.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H
#define CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H

#include "collections/AdaptiveConfig.h"
#include "support/Topology.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace cswitch {
namespace concurrent {

/// Maximum shards of any striped variant; bounds the per-instance
/// footprint (64 shards x two cache lines of lock + table header).
inline constexpr size_t MaxShards = 64;

/// Shards per hardware thread under the auto rule. With one shard per
/// thread, threads hitting Zipf-skewed keys meet on a shard lock often
/// enough to park in the futex; four per thread keep that rare while
/// the footprint stays within a few percent (DESIGN.md §11.3).
inline constexpr size_t AutoShardsPerThread = 4;

/// Rounds \p Requested to the shard count actually used: the next power
/// of two, clamped to [1, MaxShards]. 0 = auto (AutoShardsPerThread x
/// hardware concurrency).
inline size_t resolveShardCount(size_t Requested) {
  size_t Want = Requested;
  if (Want == 0) {
    unsigned Hardware = std::thread::hardware_concurrency();
    Want = AutoShardsPerThread * (Hardware ? Hardware : 1);
  }
  if (Want > MaxShards)
    Want = MaxShards;
  size_t Shards = 1;
  while (Shards < Want)
    Shards *= 2;
  return Shards;
}

/// Shard count configured for new striped instances (the
/// ContentionPolicy knob resolved; see AdaptiveConfig).
inline size_t configuredShardCount() {
  return resolveShardCount(AdaptiveConfig::global().contention().Shards);
}

/// Shard of a key with hash \p Hash among \p Shards (a power of two).
///
/// Uses the *top* hash bits: the in-shard open-addressing tables index
/// with the low bits of the same hash, and reusing them here would make
/// every key of a shard collide into the same probe chain.
inline size_t shardOfHash(uint64_t Hash, size_t Shards) {
  return (Hash >> 32) & (Shards - 1);
}

/// A size counter on a cache line of its own. The striped variants keep
/// it out of line: every successful add or remove writes it, and beside
/// the fields every operation reads (vptr, shard count, shard array) it
/// would invalidate their line on every cpu. Out of line, the instance
/// also stays the size its footprint has always reported.
struct alignas(CacheLineBytes) LineCounter {
  std::atomic<size_t> Value{0};
};

/// The lock of one shard of a striped variant: a spin-then-park lock in
/// one 32-bit word (DESIGN.md §11). A striped write holds it for tens of
/// nanoseconds, so a thread that finds it held spins on a relaxed load
/// for SpinLimit rounds before it parks; std::mutex would park in the
/// futex on the first failed attempt. Parking uses C++20 atomic
/// wait/notify. Satisfies Lockable, so std::lock_guard and
/// std::unique_lock take it.
///
/// The mutex-serialized variants keep std::mutex: one lock that every
/// thread hammers runs better when its waiters sleep than when they spin.
class ShardLock {
public:
  /// Relaxed-load rounds a contended lock() spins before it parks.
  static constexpr unsigned SpinLimit = 64;

  void lock() {
    uint32_t Expected = Free;
    if (!State.compare_exchange_strong(Expected, Held,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed))
      lockContended();
  }

  bool try_lock() {
    uint32_t Expected = Free;
    return State.compare_exchange_strong(Expected, Held,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void unlock() {
    if (State.exchange(Free, std::memory_order_release) == HeldWaiters)
      State.notify_one();
  }

  /// True while the lock is held and some thread has parked, or is
  /// about to park, on it (for tests).
  bool hasWaiters() const {
    return State.load(std::memory_order_relaxed) == HeldWaiters;
  }

private:
  enum : uint32_t { Free = 0, Held = 1, HeldWaiters = 2 };

  void lockContended() {
    for (unsigned Spin = 0; Spin != SpinLimit; ++Spin) {
      pause();
      if (State.load(std::memory_order_relaxed) == Free && try_lock())
        return;
    }
    // Marking the word HeldWaiters before parking makes the holder's
    // unlock() notify; a thread that takes the lock this way keeps the
    // mark, since other waiters may still be parked.
    while (State.exchange(HeldWaiters, std::memory_order_acquire) != Free)
      State.wait(HeldWaiters, std::memory_order_relaxed);
  }

  /// Spin-wait hint to the core; nothing where the target has none.
  static void pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
  }

  std::atomic<uint32_t> State{Free};
};

} // namespace concurrent
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H
