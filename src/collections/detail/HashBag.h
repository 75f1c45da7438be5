//===- HashBag.h - Chained hash multiset (internal) -------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chained-hash multiset used as the lookup index of HashArrayList and
/// of AdaptiveList once it migrates — the paper's "ArrayList + HashBag for
/// faster lookups" variant (Table 2). Internal to the collections library;
/// not part of the public API.
///
/// The chains are threaded through one contiguous node array by 32-bit
/// indices, so adding a distinct value costs no allocation of its own:
/// the array grows with the bucket table, and a rehash only relinks.
/// Dropping a value's last occurrence moves the array's last node into
/// the hole (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H
#define CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H

#include "support/Hashing.h"
#include "support/MemoryTracker.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace cswitch {
namespace detail {

/// A multiset of T backed by a chained hash table of (value, count) nodes
/// pooled in one array.
template <typename T, typename Hash = DefaultHash<T>> class HashBag {
  /// Node links are 1-based indices into Nodes; 0 ends a chain.
  struct Node {
    T Value;
    uint32_t Count;
    uint32_t Next;
  };

public:
  HashBag() = default;

  HashBag(const HashBag &) = delete;
  HashBag &operator=(const HashBag &) = delete;

  /// Adds one occurrence of \p Value.
  void addOne(const T &Value) {
    if (Heads.empty())
      rehash(InitialBuckets);
    uint32_t &Head = Heads[bucketIndex(Value)];
    for (uint32_t I = Head; I; I = Nodes[I - 1].Next) {
      if (Nodes[I - 1].Value == Value) {
        ++Nodes[I - 1].Count;
        return;
      }
    }
    assert(Nodes.size() < std::numeric_limits<uint32_t>::max() &&
           "node index overflows 32 bits");
    Nodes.push_back(Node{Value, 1, Head});
    Head = static_cast<uint32_t>(Nodes.size());
    if (Nodes.size() * 4 > Heads.size() * 3)
      rehash(Heads.size() * 2);
  }

  /// Removes one occurrence of \p Value; returns false if absent.
  bool removeOne(const T &Value) {
    if (Heads.empty())
      return false;
    uint32_t *Link = &Heads[bucketIndex(Value)];
    while (uint32_t I = *Link) {
      Node &N = Nodes[I - 1];
      if (N.Value == Value) {
        if (--N.Count == 0) {
          *Link = N.Next;
          eraseUnlinked(I);
        }
        return true;
      }
      Link = &N.Next;
    }
    return false;
  }

  /// Returns true if at least one occurrence of \p Value is present.
  bool contains(const T &Value) const {
    if (Heads.empty())
      return false;
    for (uint32_t I = Heads[bucketIndex(Value)]; I; I = Nodes[I - 1].Next)
      if (Nodes[I - 1].Value == Value)
        return true;
    return false;
  }

  /// Sizes the table for \p N distinct values, so that adding them
  /// neither rehashes nor grows the node array.
  void reserve(size_t N) {
    size_t Buckets = nextPowerOfTwo((N * 4 + 2) / 3);
    if (Buckets < InitialBuckets)
      Buckets = InitialBuckets;
    if (Buckets > Heads.size())
      rehash(Buckets);
  }

  /// Number of distinct values held.
  size_t distinctSize() const { return Nodes.size(); }

  /// Removes everything and releases the table.
  void clear() {
    Nodes.clear();
    Nodes.shrink_to_fit();
    Heads.clear();
    Heads.shrink_to_fit();
  }

  /// Bytes owned by the bag (bucket heads + node array), excluding
  /// sizeof(*this).
  size_t memoryFootprint() const {
    return Heads.capacity() * sizeof(uint32_t) +
           Nodes.capacity() * sizeof(Node);
  }

private:
  static constexpr size_t InitialBuckets = 16;

  size_t bucketIndex(const T &Value) const {
    return Hash{}(Value) & (Heads.size() - 1);
  }

  /// Rebuilds the chains over \p NewBucketCount buckets. Nodes keep their
  /// indices; the node array is sized to the new load limit.
  void rehash(size_t NewBucketCount) {
    assert((NewBucketCount & (NewBucketCount - 1)) == 0 &&
           "bucket count must be a power of two");
    Heads.assign(NewBucketCount, 0);
    Nodes.reserve(NewBucketCount / 4 * 3);
    for (size_t I = 0; I != Nodes.size(); ++I) {
      uint32_t &Head = Heads[bucketIndex(Nodes[I].Value)];
      Nodes[I].Next = Head;
      Head = static_cast<uint32_t>(I + 1);
    }
  }

  /// Frees slot \p I (1-based), already unlinked from its chain, by moving
  /// the last node into it and repointing the one link to that node.
  void eraseUnlinked(uint32_t I) {
    auto Last = static_cast<uint32_t>(Nodes.size());
    if (I != Last) {
      uint32_t *Link = &Heads[bucketIndex(Nodes[Last - 1].Value)];
      while (*Link != Last) {
        assert(*Link && "last node missing from its chain");
        Link = &Nodes[*Link - 1].Next;
      }
      *Link = I;
      Nodes[I - 1] = std::move(Nodes[Last - 1]);
    }
    Nodes.pop_back();
  }

  std::vector<Node, CountingAllocator<Node>> Nodes;
  std::vector<uint32_t, CountingAllocator<uint32_t>> Heads;
};

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_HASHBAG_H
