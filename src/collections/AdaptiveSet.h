//===- AdaptiveSet.h - Size-adaptive set variant ------------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AdaptiveSet variant (paper §3.2, Table 1: array → openhash at size
/// 40): a plain array while small — lowest footprint, cache-friendly
/// linear membership tests — migrating to an open-addressing hash table
/// once the size crosses the threshold. The instant transition copies all
/// elements exactly once; the transition is one-way.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_ADAPTIVESET_H
#define CSWITCH_COLLECTIONS_ADAPTIVESET_H

#include "collections/AdaptiveConfig.h"
#include "collections/SetInterface.h"
#include "collections/detail/FlatScan.h"
#include "collections/detail/OpenHashTable.h"
#include "support/MemoryTracker.h"

#include <vector>

namespace cswitch {

/// Size-adaptive SetImpl (array, then open-addressing hash).
template <typename T> class AdaptiveSetImpl final : public SetImpl<T> {
public:
  /// Uses the process-wide threshold by default.
  AdaptiveSetImpl() : Threshold(AdaptiveConfig::global().thresholds().Set) {}

  explicit AdaptiveSetImpl(size_t Threshold) : Threshold(Threshold) {}

  bool add(const T &Value) override {
    if (Migrated)
      return Table.insert(Value);
    if (smallIndexOf(Value) != Small.size())
      return false;
    if (Small.capacity() == 0)
      Small.reserve(8);
    Small.push_back(Value);
    if (Small.size() > Threshold)
      migrate();
    return true;
  }

  bool contains(const T &Value) const override {
    if (Migrated)
      return Table.contains(Value);
    return smallIndexOf(Value) != Small.size();
  }

  bool remove(const T &Value) override {
    if (Migrated)
      return Table.erase(Value);
    size_t I = smallIndexOf(Value);
    if (I == Small.size())
      return false;
    Small.erase(Small.begin() + static_cast<ptrdiff_t>(I));
    return true;
  }

  size_t size() const override {
    return Migrated ? Table.size() : Small.size();
  }

  void clear() override {
    Small.clear();
    Small.shrink_to_fit();
    Table.clear();
    Migrated = false;
  }

  void forEach(FunctionRef<void(const T &)> Fn) const override {
    if (Migrated) {
      Table.forEach(Fn);
      return;
    }
    for (const T &V : Small)
      Fn(V);
  }

  void reserve(size_t N) override {
    if (Migrated)
      Table.reserve(N);
    else if (N <= Threshold)
      Small.reserve(N);
  }

  size_t memoryFootprint() const override {
    return sizeof(*this) + Small.capacity() * sizeof(T) +
           Table.memoryFootprint();
  }

  SetVariant variant() const override { return SetVariant::AdaptiveSet; }

  std::unique_ptr<SetImpl<T>> cloneEmpty() const override {
    return std::make_unique<AdaptiveSetImpl<T>>(Threshold);
  }

  /// True once the hash representation is active.
  bool hasMigrated() const { return Migrated; }

  /// The transition threshold of this instance.
  size_t threshold() const { return Threshold; }

private:
  size_t smallIndexOf(const T &Value) const {
    return detail::findIndex(Small.data(), Small.size(), Value);
  }

  void migrate() {
    Table.reserve(Small.size() * 2);
    for (const T &V : Small)
      Table.insert(V);
    Small.clear();
    Small.shrink_to_fit();
    Migrated = true;
    AdaptiveConfig::global().recordMigration();
  }

  std::vector<T, CountingAllocator<T>> Small;
  detail::OpenHashSetTable<T, 1, 2> Table;
  size_t Threshold;
  bool Migrated = false;
};

} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_ADAPTIVESET_H
