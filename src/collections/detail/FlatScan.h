//===- FlatScan.h - Membership scan of flat arrays --------------*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one linear membership scan behind every flat-array variant
/// (ArrayList, ArraySet, ArrayMap, the array modes of the adaptive
/// variants, HashArrayList's remove-by-value, MutexList, SnapshotList).
///
/// For 8-byte integral and enum element types, scans of at least
/// FlatScanCutover elements run an out-of-line AVX2 kernel when the CPU
/// has AVX2 (decided once at start-up); every other CPU, architecture
/// and element type keeps the inline std::find. DESIGN.md §15 records
/// how the cutover was measured.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_COLLECTIONS_DETAIL_FLATSCAN_H
#define CSWITCH_COLLECTIONS_DETAIL_FLATSCAN_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace cswitch {
namespace detail {

/// Element count from which the AVX2 kernel beats the inline scan,
/// call included (bench/micro_collections, bm_flat_scan).
inline constexpr size_t FlatScanCutover = 16;

/// True once start-up found AVX2 on this CPU. Reads before start-up
/// initialization see false, which only selects the portable scan.
extern const bool FlatScanHasAvx2;

/// Portable kernel over \p N 8-byte words at \p Data (any alignment):
/// the index of the first word equal to \p Value, or \p N.
size_t findIndex64Scalar(const void *Data, size_t N, uint64_t Value);

/// AVX2 kernel with the same contract. Only call it when
/// FlatScanHasAvx2 is true.
size_t findIndex64Avx2(const void *Data, size_t N, uint64_t Value);

/// Element types whose equality is equality of one 8-byte word.
template <typename T>
inline constexpr bool IsFlatScanWord =
    (std::is_integral_v<T> || std::is_enum_v<T>) && sizeof(T) == 8;

/// Index of the first of the \p N elements at \p Data equal to \p Value,
/// or \p N when there is none.
template <typename T>
inline size_t findIndex(const T *Data, size_t N, const T &Value) {
  if constexpr (IsFlatScanWord<T>) {
    if (N >= FlatScanCutover && FlatScanHasAvx2)
      return findIndex64Avx2(Data, N, std::bit_cast<uint64_t>(Value));
  }
  return static_cast<size_t>(std::find(Data, Data + N, Value) - Data);
}

} // namespace detail
} // namespace cswitch

#endif // CSWITCH_COLLECTIONS_DETAIL_FLATSCAN_H
