//===- OrderingFence.h - Thread fence that TSan builds accept ---*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fence of the seqlock protocols (EventLog slots, the provenance
/// ledger, ShardedHashMap's shards). TSan does not model
/// std::atomic_thread_fence (GCC even rejects it under
/// -fsanitize=thread -Werror=tsan). Every field those protocols guard is
/// atomic, so their fences are value-ordering devices only (no
/// non-atomic state is published through them) and can weaken to
/// compiler fences under the sanitizer without hiding any reportable
/// race.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_SUPPORT_ORDERINGFENCE_H
#define CSWITCH_SUPPORT_ORDERINGFENCE_H

#include <atomic>

#if defined(__SANITIZE_THREAD__)
#define CSWITCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CSWITCH_TSAN 1
#endif
#endif

namespace cswitch {

/// std::atomic_thread_fence, or a compiler fence under TSan.
inline void orderingFence(std::memory_order Order) {
#ifdef CSWITCH_TSAN
  std::atomic_signal_fence(Order);
#else
  std::atomic_thread_fence(Order);
#endif
}

} // namespace cswitch

#endif // CSWITCH_SUPPORT_ORDERINGFENCE_H
