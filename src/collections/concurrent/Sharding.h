//===- Sharding.h - Shard sizing/selection of the concurrent tier -*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared shard arithmetic of the lock-striped collection variants
/// (DESIGN.md §11): resolving the shard count from the process-wide
/// ContentionPolicy and mapping a key hash to a shard.
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
/// footprint (64 shards x one cache line of mutex + table header).
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

} // namespace concurrent
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_SHARDING_H
