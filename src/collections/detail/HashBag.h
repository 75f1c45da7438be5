//===- HashBag.h - Group-probed hash multiset (internal) --------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash multiset used as the lookup index of HashArrayList and of
/// AdaptiveList once it migrates — the paper's "ArrayList + HashBag for
/// faster lookups" variant (Table 2). Internal to the collections library;
/// not part of the public API.
///
/// The table is open-addressed and probed a group of 8 slots at a time.
/// Each slot has a control byte that holds "empty", "deleted" or the low
/// 7 bits of its value's hash (the tag). A lookup loads a group's 8
/// control bytes as one 64-bit word, finds the lanes whose tag matches
/// with SWAR bit tricks, and reads a value only for those lanes. Counts
/// sit in their own array, so a lookup never touches them. Dropping a
/// value's last occurrence marks its slot deleted; deleted slots count
/// against the load limit until a rehash purges them (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H
#define CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H

#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace cswitch {
namespace detail {

// The group matchers below read 8 control bytes as one word and take
// the lowest set byte as the first lane, which holds only when the byte
// at the lowest address is the word's least significant.
static_assert(std::endian::native == std::endian::little,
              "HashBag's lane arithmetic assumes little-endian words");

/// A multiset of T backed by a group-probed open-addressing table of
/// (value, count) slots.
template <typename T, typename Hash = DefaultHash<T>> class HashBag {
public:
  HashBag() = default;

  HashBag(const HashBag &) = delete;
  HashBag &operator=(const HashBag &) = delete;

  /// Adds one occurrence of \p Value.
  void addOne(const T &Value) {
    if (Values.empty())
      rehash(InitialCapacity);
    uint64_t H = Hash{}(Value);
    int8_t Tag = tagOf(H);
    // One probe both looks for the value and notes the first free slot
    // on its path, where a new value goes.
    size_t Free = NoSlot;
    for (ProbeSeq P(H, Values.size() - 1);; P.next()) {
      uint64_t Group = loadGroup(Ctrl, P.Pos);
      for (uint64_t M = matchTag(Group, Tag); M; M &= M - 1) {
        size_t I = P.slot(M);
        if (Values[I] == Value) {
          assert(Counts[I] != std::numeric_limits<uint32_t>::max() &&
                 "occurrence count overflows 32 bits");
          ++Counts[I];
          return;
        }
      }
      if (Free == NoSlot)
        if (uint64_t M = matchEmptyOrDeleted(Group))
          Free = P.slot(M);
      if (matchEmpty(Group))
        break;
    }
    Used += Ctrl[Free] == CtrlEmpty;
    ++Live;
    setCtrl(Free, Tag);
    Values[Free] = Value;
    Counts[Free] = 1;
    if (Used * 4 > Values.size() * 3)
      rehash(capacityAfterLimit());
  }

  /// Removes one occurrence of \p Value; returns false if absent.
  bool removeOne(const T &Value) {
    if (Values.empty())
      return false;
    size_t I = find(Value, Hash{}(Value));
    if (I == NoSlot)
      return false;
    if (--Counts[I] == 0) {
      setCtrl(I, CtrlDeleted);
      Values[I] = T();
      --Live;
    }
    return true;
  }

  /// Returns true if at least one occurrence of \p Value is present.
  bool contains(const T &Value) const {
    if (Values.empty())
      return false;
    uint64_t H = Hash{}(Value);
    ProbeSeq P(H, Values.size() - 1);
    uint64_t Group = loadGroup(Ctrl, P.Pos);
    uint64_t M = matchTag(Group, tagOf(H));
    // Most lookups end in the first group with at most one tag match.
    // Those compare one value, from the matching lane or else from the
    // last lane, and branch neither on a match nor on the comparison.
    if ((M & (M - 1)) == 0 && matchEmpty(Group)) {
      bool Same = Values[P.slot(M | LastLane)] == Value;
      return Same & (M != 0);
    }
    return find(Value, H) != NoSlot;
  }

  /// Sizes the table for \p N distinct values, so that adding them to an
  /// empty bag does not rehash.
  void reserve(size_t N) {
    size_t Capacity = nextPowerOfTwo((N * 4 + 2) / 3);
    if (Capacity < InitialCapacity)
      Capacity = InitialCapacity;
    if (Capacity > Values.size())
      rehash(Capacity);
  }

  /// Number of distinct values held.
  size_t distinctSize() const { return Live; }

  /// Removes everything and releases the table.
  void clear() {
    Ctrl.clear();
    Ctrl.shrink_to_fit();
    Values.clear();
    Values.shrink_to_fit();
    Counts.clear();
    Counts.shrink_to_fit();
    Live = Used = 0;
  }

  /// Bytes owned by the bag (control bytes, values and counts), excluding
  /// sizeof(*this).
  size_t memoryFootprint() const {
    return Ctrl.capacity() * sizeof(int8_t) + Values.capacity() * sizeof(T) +
           Counts.capacity() * sizeof(uint32_t);
  }

private:
  static constexpr size_t InitialCapacity = 16;
  static constexpr size_t GroupWidth = 8;
  static constexpr size_t NoSlot = std::numeric_limits<size_t>::max();

  /// Control bytes: a full slot holds its tag (0..127, top bit clear).
  static constexpr int8_t CtrlEmpty = -128; // 0b10000000
  static constexpr int8_t CtrlDeleted = -2; // 0b11111110

  static constexpr uint64_t LaneLows = 0x0101010101010101ULL;
  static constexpr uint64_t LaneHighs = 0x8080808080808080ULL;
  /// The high bit of a group's last lane.
  static constexpr uint64_t LastLane = uint64_t{1} << 63;

  /// The tag is the hash's low 7 bits; the probe starts from the bits
  /// above it.
  static int8_t tagOf(uint64_t H) { return static_cast<int8_t>(H & 0x7f); }

  /// Lanes whose byte equals \p Tag, as each lane's high bit. A lane
  /// just above a true match whose tag differs from \p Tag only in the
  /// lowest bit can be reported too (the subtraction's borrow); callers
  /// compare values, so such a false positive costs one comparison.
  static uint64_t matchTag(uint64_t Group, int8_t Tag) {
    uint64_t X = Group ^ (LaneLows * static_cast<uint8_t>(Tag));
    return (X - LaneLows) & ~X & LaneHighs;
  }

  /// Empty lanes: high bit set and bit 1 clear.
  static uint64_t matchEmpty(uint64_t Group) {
    return Group & ~(Group << 6) & LaneHighs;
  }

  /// Empty or deleted lanes: high bit set and bit 0 clear.
  static uint64_t matchEmptyOrDeleted(uint64_t Group) {
    return Group & ~(Group << 7) & LaneHighs;
  }

  /// Full lanes: high bit clear.
  static uint64_t matchFull(uint64_t Group) { return ~Group & LaneHighs; }

  /// The lowest lane set in a match.
  static size_t lane(uint64_t Match) {
    return static_cast<size_t>(std::countr_zero(Match)) >> 3;
  }

  /// Groups start anywhere in [0, capacity) and step in triangular
  /// multiples of the group width, which visits every start offset
  /// modulo the width once per capacity / width steps; with each group
  /// covering 8 slots, a probe reaches every slot.
  struct ProbeSeq {
    ProbeSeq(uint64_t H, size_t Mask) : Pos((H >> 7) & Mask), Mask(Mask) {}
    /// The slot of the lowest lane set in \p Match.
    size_t slot(uint64_t Match) const {
      return (Pos + lane(Match)) & Mask;
    }
    void next() {
      Step += GroupWidth;
      Pos = (Pos + Step) & Mask;
    }
    size_t Pos;
    size_t Mask;
    size_t Step = 0;
  };

  /// The 8 control bytes of \p Bytes from \p Pos on. The control array
  /// repeats its first 7 bytes past the end, so a group never wraps.
  template <typename CtrlVector>
  static uint64_t loadGroup(const CtrlVector &Bytes, size_t Pos) {
    uint64_t Group;
    std::memcpy(&Group, Bytes.data() + Pos, sizeof(Group));
    return Group;
  }

  /// Writes control byte \p I and, for the first 7 slots, its clone past
  /// the end (otherwise the same byte again).
  void setCtrl(size_t I, int8_t C) {
    Ctrl[I] = C;
    Ctrl[((I - (GroupWidth - 1)) & (Values.size() - 1)) + GroupWidth - 1] = C;
  }

  /// The slot holding \p Value, whose hash is \p H, or NoSlot. The
  /// table must be allocated.
  size_t find(const T &Value, uint64_t H) const {
    int8_t Tag = tagOf(H);
    for (ProbeSeq P(H, Values.size() - 1);; P.next()) {
      uint64_t Group = loadGroup(Ctrl, P.Pos);
      for (uint64_t M = matchTag(Group, Tag); M; M &= M - 1) {
        size_t I = P.slot(M);
        if (Values[I] == Value)
          return I;
      }
      if (matchEmpty(Group))
        return NoSlot;
    }
  }

  /// The capacity to rehash to once live plus deleted slots pass the
  /// load limit. It stays the same, purging the deleted slots, while the
  /// live values fill at most 5/8 of it, so at least 1/8 of the table
  /// takes new values before the next rehash; otherwise it doubles.
  size_t capacityAfterLimit() const {
    size_t Capacity = Values.size();
    while (Live * 8 > Capacity * 5)
      Capacity *= 2;
    return Capacity;
  }

  /// Rebuilds the table at \p NewCapacity slots without deleted ones.
  void rehash(size_t NewCapacity) {
    assert((NewCapacity & (NewCapacity - 1)) == 0 &&
           NewCapacity >= GroupWidth &&
           "capacity must be a power of two of at least one group");
    std::vector<int8_t, CountingAllocator<int8_t>> OldCtrl(std::move(Ctrl));
    std::vector<T, CountingAllocator<T>> OldValues(std::move(Values));
    std::vector<uint32_t, CountingAllocator<uint32_t>> OldCounts(
        std::move(Counts));
    Ctrl.assign(NewCapacity + GroupWidth - 1, CtrlEmpty);
    Values.assign(NewCapacity, T());
    Counts.assign(NewCapacity, 0);
    // A group at a time, so the loop branches per full slot rather than
    // on each slot's state.
    for (size_t Base = 0, E = OldValues.size(); Base != E; Base += GroupWidth) {
      for (uint64_t Full = matchFull(loadGroup(OldCtrl, Base)); Full;
           Full &= Full - 1) {
        size_t I = Base + lane(Full);
        uint64_t H = Hash{}(OldValues[I]);
        // The new table has no deleted slots and is at most 5/8 full,
        // so the start slot is often free; testing that one byte also
        // spares a group load that overlaps the last byte stores.
        ProbeSeq P(H, NewCapacity - 1);
        size_t Slot = P.Pos;
        if (Ctrl[Slot] != CtrlEmpty) {
          uint64_t M;
          while (!(M = matchEmpty(loadGroup(Ctrl, P.Pos))))
            P.next();
          Slot = P.slot(M);
        }
        setCtrl(Slot, tagOf(H));
        Values[Slot] = std::move(OldValues[I]);
        Counts[Slot] = OldCounts[I];
      }
    }
    Used = Live;
  }

  /// Capacity + 7 control bytes; the last 7 repeat the first 7.
  std::vector<int8_t, CountingAllocator<int8_t>> Ctrl;
  std::vector<T, CountingAllocator<T>> Values;
  std::vector<uint32_t, CountingAllocator<uint32_t>> Counts;
  /// Distinct values held.
  size_t Live = 0;
  /// Slots not empty: live plus deleted.
  size_t Used = 0;
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H
