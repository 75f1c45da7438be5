//===- AdaptiveList.h - Size-adaptive list variant ---------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AdaptiveList variant (paper §3.2, Table 1: array → hash at size
/// 80): behaves as a plain ArrayList while small, and builds the hash
/// lookup index once the size crosses the configured threshold — an
/// instant transition that trades a one-time O(n) migration for O(1)
/// lookups afterwards. The transition is one-way (no thrashing when the
/// size oscillates around the threshold).
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ADAPTIVELIST_H
#define CSWITCH_COLLECTIONS_ADAPTIVELIST_H

#include "collections/AdaptiveConfig.h"
#include "collections/ListInterface.h"
#include "collections/detail/FlatScan.h"
#include "collections/detail/HashBag.h"
#include "support/MemoryTracker.h"

#include <cassert>
#include <vector>

namespace cswitch {

/// Size-adaptive ListImpl (array, then array + hash index).
template <typename T> class AdaptiveListImpl final : public ListImpl<T> {
public:
  /// Uses the process-wide threshold by default.
  AdaptiveListImpl()
      : Threshold(AdaptiveConfig::global().thresholds().List) {}

  explicit AdaptiveListImpl(size_t Threshold) : Threshold(Threshold) {}

  void push_back(const T &Value) override {
    if (Data.capacity() == 0)
      Data.reserve(8);
    Data.push_back(Value);
    if (Indexed)
      Index.addOne(Value);
    else
      maybeMigrate();
  }

  void insertAt(size_t Pos, const T &Value) override {
    assert(Pos <= Data.size() && "insert index out of range");
    Data.insert(Data.begin() + static_cast<ptrdiff_t>(Pos), Value);
    if (Indexed)
      Index.addOne(Value);
    else
      maybeMigrate();
  }

  void removeAt(size_t Pos) override {
    assert(Pos < Data.size() && "remove index out of range");
    if (Indexed)
      Index.removeOne(Data[Pos]);
    Data.erase(Data.begin() + static_cast<ptrdiff_t>(Pos));
  }

  bool removeValue(const T &Value) override {
    if (Indexed && !Index.removeOne(Value))
      return false;
    size_t I = detail::findIndex(Data.data(), Data.size(), Value);
    if (I == Data.size()) {
      assert(!Indexed && "index out of sync with data");
      return false;
    }
    Data.erase(Data.begin() + static_cast<ptrdiff_t>(I));
    return true;
  }

  const T &at(size_t Pos) const override {
    assert(Pos < Data.size() && "index out of range");
    return Data[Pos];
  }

  void set(size_t Pos, const T &Value) override {
    assert(Pos < Data.size() && "index out of range");
    if (Indexed) {
      Index.removeOne(Data[Pos]);
      Index.addOne(Value);
    }
    Data[Pos] = Value;
  }

  bool contains(const T &Value) const override {
    if (Indexed)
      return Index.contains(Value);
    return detail::findIndex(Data.data(), Data.size(), Value) != Data.size();
  }

  size_t size() const override { return Data.size(); }

  void clear() override {
    Data.clear();
    if (Indexed) {
      Index.clear();
      Indexed = false;
    }
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    for (const T &V : Data)
      Fn(V);
  }

  void reserve(size_t N) override { Data.reserve(N); }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Data.capacity() * sizeof(T) +
           (Indexed ? Index.memoryFootprint() : 0);
  }

  ListVariant variant() const override { return ListVariant::AdaptiveList; }

  std::unique_ptr<ListImpl<T>> cloneEmpty() const override {
    return std::make_unique<AdaptiveListImpl<T>>(Threshold);
  }

  /// True once the hash index has been built.
  bool hasMigrated() const { return Indexed; }

  /// The transition threshold of this instance.
  size_t threshold() const { return Threshold; }

private:
  void maybeMigrate() {
    if (Data.size() <= Threshold)
      return;
    Index.reserve(Data.size());
    for (const T &V : Data)
      Index.addOne(V);
    Indexed = true;
    AdaptiveConfig::global().recordMigration();
  }

  std::vector<T, CountingAllocator<T>> Data;
  detail::HashBag<T> Index;
  size_t Threshold;
  bool Indexed = false;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ADAPTIVELIST_H
