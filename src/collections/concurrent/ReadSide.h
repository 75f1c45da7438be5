//===- ReadSide.h - Lock-free read side of the striped tier -----*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a reader of a lock-striped variant needs to skip the shard lock
/// (DESIGN.md §11.4): the type rule that says whether a slot may be read
/// while a writer changes it, and the grace domain that keeps a table a
/// writer has replaced alive until no reader can still be probing it.
///
/// A GraceDomain tracks readers SRCU-style, with two reader counters per
/// cpu lane (one per phase), each lane a cache line of its own. A reader
/// adds 1 to its lane's counter of the current phase on entry and
/// subtracts it on exit, so a read writes only its own cpu's line. A
/// writer that unpublishes a block retires it to the domain. The block
/// is freed once two phase flips that began after its retirement have
/// each seen the old phase's counters drain to zero. Reclaiming never
/// waits: it runs under try_lock, and a phase that has not drained yet
/// is looked at again by a later call.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_CONCURRENT_READSIDE_H
#define CSWITCH_COLLECTIONS_CONCURRENT_READSIDE_H

#include "support/Topology.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>

namespace cswitch {
namespace concurrent {

/// std::atomic_ref<T> is lock-free at T's own alignment. Only
/// instantiated for trivially copyable T (see SeqlockReadable).
template <typename T>
struct AtomicRefLockFree
    : std::bool_constant<std::atomic_ref<T>::is_always_lock_free &&
                         alignof(T) >= std::atomic_ref<T>::required_alignment> {
};

/// True when a slot of T can be read while a writer changes it: T is
/// trivially copyable and std::atomic_ref<T> is always lock-free. The
/// conjunction short-circuits, so atomic_ref of a type it rejects (such
/// as std::string) is never instantiated.
template <typename T>
inline constexpr bool SeqlockReadable =
    std::conjunction_v<std::is_trivially_copyable<T>, AtomicRefLockFree<T>>;

/// Relaxed load of a slot a writer may be changing (a plain read for
/// types that are never read without the lock).
template <typename T> T loadSlot(const T &Slot) {
  if constexpr (SeqlockReadable<T>)
    return std::atomic_ref<T>(const_cast<T &>(Slot))
        .load(std::memory_order_relaxed);
  else
    return Slot;
}

/// Relaxed store to a slot readers may be reading.
template <typename T> void storeSlot(T &Slot, const T &Value) {
  if constexpr (SeqlockReadable<T>)
    std::atomic_ref<T>(Slot).store(Value, std::memory_order_relaxed);
  else
    Slot = Value;
}

/// A block a writer has unpublished. Blocks embed this header, so
/// retiring one allocates nothing.
struct Retired {
  Retired *Next = nullptr;
  /// Phase flips begun before the block was retired.
  uint64_t FlipsBefore = 0;
  /// Frees the block (which starts with this header).
  void (*Free)(Retired *) = nullptr;
};

/// Per-instance reader tracking and deferred freeing (see the file
/// comment). Readers touch only the first line and their own lane;
/// retiring and reclaiming write the second line.
class alignas(CacheLineBytes) GraceDomain {
public:
  /// The lane and phase one read section counted itself in.
  struct Section {
    unsigned Lane;
    unsigned Phase;
  };

  GraceDomain()
      : NumLanes(cpuStripeCount()), Lanes(std::make_unique<Lane[]>(NumLanes)) {
  }
  GraceDomain(const GraceDomain &) = delete;
  GraceDomain &operator=(const GraceDomain &) = delete;

  /// Frees every retired block; no reader may be inside the domain.
  ~GraceDomain() {
    adoptIncoming();
    while (Pending) {
      Retired *Next = Pending->Next;
      Pending->Free(Pending);
      Pending = Next;
    }
  }

  /// Opens a read section. The counter increment is seq_cst and so is
  /// the reader's later load of a published pointer: either a reclaimer
  /// sees this reader, or the reader sees what was published before the
  /// reclaimer looked.
  Section enter() const {
    Section S{currentCpuStripe(NumLanes),
              Phase.load(std::memory_order_relaxed)};
    Lanes[S.Lane].Readers[S.Phase].fetch_add(1, std::memory_order_seq_cst);
    return S;
  }

  /// Closes a read section. Release: the section's reads happen before
  /// a reclaimer that sees the decrement frees anything.
  void leave(Section S) const {
    Lanes[S.Lane].Readers[S.Phase].fetch_sub(1, std::memory_order_release);
  }

  /// Hands \p Block to the domain. Call after its replacement has been
  /// published with a seq_cst store; lock-free, so it may run under a
  /// shard lock.
  void retire(Retired *Block) {
    Block->FlipsBefore = Flips.load(std::memory_order_seq_cst);
    Outstanding.fetch_add(1, std::memory_order_relaxed);
    Retired *Head = Incoming.load(std::memory_order_relaxed);
    do
      Block->Next = Head;
    while (!Incoming.compare_exchange_weak(Head, Block,
                                           std::memory_order_release,
                                           std::memory_order_relaxed));
  }

  /// True while some retired block is not freed yet (a cheap test that
  /// writers make before calling tryReclaim).
  bool hasRetired() const {
    return Outstanding.load(std::memory_order_relaxed) != 0;
  }

  /// Frees every retired block that no reader can still hold and moves
  /// the grace period on. Never waits: returns at once when another
  /// thread is reclaiming or when the old phase still has readers.
  void tryReclaim() {
    std::unique_lock<std::mutex> Lock(ReclaimMutex, std::try_to_lock);
    if (!Lock)
      return;
    adoptIncoming();
    while (Pending) {
      if (!Draining) {
        // Only this thread writes Flips and Phase (under ReclaimMutex).
        Flips.store(Flips.load(std::memory_order_relaxed) + 1,
                    std::memory_order_seq_cst);
        Phase.store(Phase.load(std::memory_order_relaxed) ^ 1,
                    std::memory_order_seq_cst);
        Draining = true;
      }
      if (readers(Phase.load(std::memory_order_relaxed) ^ 1) != 0)
        return;
      Draining = false;
      ++Drained;
      freeGraced();
    }
  }

private:
  struct alignas(CacheLineBytes) Lane {
    std::atomic<uint64_t> Readers[2] = {};
  };

  /// Readers of phase \p P, summed over the lanes.
  uint64_t readers(unsigned P) const {
    uint64_t Sum = 0;
    for (unsigned I = 0; I != NumLanes; ++I)
      Sum += Lanes[I].Readers[P].load(std::memory_order_seq_cst);
    return Sum;
  }

  /// Moves the blocks retired since the last call to Pending.
  void adoptIncoming() {
    Retired *Block = Incoming.exchange(nullptr, std::memory_order_acquire);
    while (Block) {
      Retired *Next = Block->Next;
      Block->Next = Pending;
      Pending = Block;
      Block = Next;
    }
  }

  /// Frees the pending blocks retired before the last two drained flips
  /// began: every reader that could hold one has left since.
  void freeGraced() {
    Retired **Link = &Pending;
    while (Retired *Block = *Link) {
      if (Block->FlipsBefore + 2 > Drained) {
        Link = &Block->Next;
        continue;
      }
      *Link = Block->Next;
      Block->Free(Block);
      Outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Read by every reader; written only by a phase flip.
  std::atomic<unsigned> Phase{0};
  const unsigned NumLanes;
  std::unique_ptr<Lane[]> Lanes;

  // Written by retire() and tryReclaim(), on a line of their own.
  alignas(CacheLineBytes) std::atomic<Retired *> Incoming{nullptr};
  std::atomic<size_t> Outstanding{0};
  std::atomic<uint64_t> Flips{0};
  std::mutex ReclaimMutex;
  Retired *Pending = nullptr; ///< Guarded by ReclaimMutex.
  uint64_t Drained = 0;       ///< Completed flips; guarded by ReclaimMutex.
  bool Draining = false;      ///< A flip awaits its drain; ditto.
};

/// RAII read section of a GraceDomain.
class ReadSection {
public:
  explicit ReadSection(const GraceDomain &Domain)
      : Domain(Domain), Token(Domain.enter()) {}
  ReadSection(const ReadSection &) = delete;
  ReadSection &operator=(const ReadSection &) = delete;
  ~ReadSection() { Domain.leave(Token); }

private:
  const GraceDomain &Domain;
  GraceDomain::Section Token;
};

} // namespace concurrent
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_CONCURRENT_READSIDE_H
