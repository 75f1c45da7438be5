//===- Variants.cpp - Collection variant identities ----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "collections/Variants.h"

#include "collections/detail/FlatScan.h"

#include <bit>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

using namespace cswitch;

const char *cswitch::abstractionKindName(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return "list";
  case AbstractionKind::Set:
    return "set";
  case AbstractionKind::Map:
    return "map";
  }
  return "unknown";
}

const char *cswitch::listVariantName(ListVariant V) {
  switch (V) {
  case ListVariant::ArrayList:
    return "ArrayList";
  case ListVariant::LinkedList:
    return "LinkedList";
  case ListVariant::HashArrayList:
    return "HashArrayList";
  case ListVariant::AdaptiveList:
    return "AdaptiveList";
  case ListVariant::MutexList:
    return "MutexList";
  case ListVariant::SnapshotList:
    return "SnapshotList";
  }
  return "unknown";
}

const char *cswitch::setVariantName(SetVariant V) {
  switch (V) {
  case SetVariant::ChainedHashSet:
    return "ChainedHashSet";
  case SetVariant::OpenHashSet:
    return "OpenHashSet";
  case SetVariant::LinkedHashSet:
    return "LinkedHashSet";
  case SetVariant::ArraySet:
    return "ArraySet";
  case SetVariant::CompactHashSet:
    return "CompactHashSet";
  case SetVariant::AdaptiveSet:
    return "AdaptiveSet";
  case SetVariant::TreeSet:
    return "TreeSet";
  case SetVariant::SortedArraySet:
    return "SortedArraySet";
  case SetVariant::MutexHashSet:
    return "MutexHashSet";
  case SetVariant::StripedHashSet:
    return "StripedHashSet";
  }
  return "unknown";
}

const char *cswitch::mapVariantName(MapVariant V) {
  switch (V) {
  case MapVariant::ChainedHashMap:
    return "ChainedHashMap";
  case MapVariant::OpenHashMap:
    return "OpenHashMap";
  case MapVariant::LinkedHashMap:
    return "LinkedHashMap";
  case MapVariant::ArrayMap:
    return "ArrayMap";
  case MapVariant::CompactHashMap:
    return "CompactHashMap";
  case MapVariant::AdaptiveMap:
    return "AdaptiveMap";
  case MapVariant::TreeMap:
    return "TreeMap";
  case MapVariant::SortedArrayMap:
    return "SortedArrayMap";
  case MapVariant::MutexHashMap:
    return "MutexHashMap";
  case MapVariant::ShardedHashMap:
    return "ShardedHashMap";
  }
  return "unknown";
}

bool cswitch::parseListVariant(const std::string &Name, ListVariant &Out) {
  for (ListVariant V : AllListVariants) {
    if (Name == listVariantName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

bool cswitch::parseSetVariant(const std::string &Name, SetVariant &Out) {
  for (SetVariant V : AllSetVariants) {
    if (Name == setVariantName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

bool cswitch::parseMapVariant(const std::string &Name, MapVariant &Out) {
  for (MapVariant V : AllMapVariants) {
    if (Name == mapVariantName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

std::string VariantId::name() const {
  switch (Abstraction) {
  case AbstractionKind::List:
    return listVariantName(static_cast<ListVariant>(Index));
  case AbstractionKind::Set:
    return setVariantName(static_cast<SetVariant>(Index));
  case AbstractionKind::Map:
    return mapVariantName(static_cast<MapVariant>(Index));
  }
  return "unknown";
}

size_t cswitch::numVariantsOf(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return NumListVariants;
  case AbstractionKind::Set:
    return NumSetVariants;
  case AbstractionKind::Map:
    return NumMapVariants;
  }
  assert(false && "unknown abstraction kind");
  return 0;
}

const char *cswitch::concurrencyName(Concurrency Mode) {
  switch (Mode) {
  case Concurrency::None:
    return "none";
  case Concurrency::Mutex:
    return "mutex";
  case Concurrency::Sharded:
    return "sharded";
  case Concurrency::Auto:
    return "auto";
  }
  return "unknown";
}

bool cswitch::parseConcurrency(const std::string &Name, Concurrency &Out) {
  for (Concurrency Mode : {Concurrency::None, Concurrency::Mutex,
                           Concurrency::Sharded, Concurrency::Auto}) {
    if (Name == concurrencyName(Mode)) {
      Out = Mode;
      return true;
    }
  }
  return false;
}

namespace {

/// Mutex-serialized and lock-striped/COW variant indices of one
/// abstraction: the two strategies of the concurrent tier.
struct ConcurrentPair {
  unsigned Mutex;
  unsigned Sharded;
};

ConcurrentPair concurrentPairOf(AbstractionKind Kind) {
  switch (Kind) {
  case AbstractionKind::List:
    return {static_cast<unsigned>(ListVariant::MutexList),
            static_cast<unsigned>(ListVariant::SnapshotList)};
  case AbstractionKind::Set:
    return {static_cast<unsigned>(SetVariant::MutexHashSet),
            static_cast<unsigned>(SetVariant::StripedHashSet)};
  case AbstractionKind::Map:
    return {static_cast<unsigned>(MapVariant::MutexHashMap),
            static_cast<unsigned>(MapVariant::ShardedHashMap)};
  }
  assert(false && "unknown abstraction kind");
  return {0, 0};
}

} // namespace

unsigned cswitch::firstConcurrentVariant(AbstractionKind Kind) {
  // The concurrent tier is appended after every sequential variant, with
  // the mutex strategy first.
  return concurrentPairOf(Kind).Mutex;
}

bool cswitch::isConcurrentVariant(AbstractionKind Kind, unsigned Index) {
  return Index >= firstConcurrentVariant(Kind);
}

uint32_t cswitch::concurrencyCandidateMask(AbstractionKind Kind,
                                           Concurrency Mode) {
  ConcurrentPair Pair = concurrentPairOf(Kind);
  switch (Mode) {
  case Concurrency::None:
    return (1u << Pair.Mutex) - 1; // Every sequential variant.
  case Concurrency::Mutex:
    return 1u << Pair.Mutex;
  case Concurrency::Sharded:
    return 1u << Pair.Sharded;
  case Concurrency::Auto:
    return (1u << Pair.Mutex) | (1u << Pair.Sharded);
  }
  return 0;
}

unsigned cswitch::concurrentInitialVariant(AbstractionKind Kind,
                                           Concurrency Mode) {
  assert(Mode != Concurrency::None &&
         "the sequential tier has no concurrent initial variant");
  ConcurrentPair Pair = concurrentPairOf(Kind);
  return Mode == Concurrency::Sharded ? Pair.Sharded : Pair.Mutex;
}

//===----------------------------------------------------------------------===//
// Flat-array membership scan (collections/detail/FlatScan.h)
//===----------------------------------------------------------------------===//

size_t cswitch::detail::findIndex64Scalar(const void *Data, size_t N,
                                          uint64_t Value) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I) {
    uint64_t Word;
    std::memcpy(&Word, Bytes + I * sizeof(Word), sizeof(Word));
    if (Word == Value)
      return I;
  }
  return N;
}

#if defined(__x86_64__)

namespace {

/// Lane mask (bit i = lane i) of a 4 x 64-bit comparison result.
__attribute__((target("avx2"))) unsigned laneMask(__m256i Cmp) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(Cmp)));
}

__attribute__((target("avx2"))) __m256i compareAt(const uint64_t *Words,
                                                   size_t I, __m256i Needle) {
  return _mm256_cmpeq_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Words + I)),
      Needle);
}

bool detectAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

} // namespace

const bool cswitch::detail::FlatScanHasAvx2 = detectAvx2();

__attribute__((target("avx2"))) size_t
cswitch::detail::findIndex64Avx2(const void *Data, size_t N, uint64_t Value) {
  // Fewer words than one vector: nothing to overlap the last load with.
  if (N < 4)
    return findIndex64Scalar(Data, N, Value);
  const auto *Words = static_cast<const uint64_t *>(Data);
  const __m256i Needle = _mm256_set1_epi64x(static_cast<long long>(Value));
  size_t I = 0;
  // 16 words per iteration; one OR-reduced test decides whether any of
  // the four comparisons hit before the lanes are located.
  for (; I + 16 <= N; I += 16) {
    __m256i A = compareAt(Words, I, Needle);
    __m256i B = compareAt(Words, I + 4, Needle);
    __m256i C = compareAt(Words, I + 8, Needle);
    __m256i D = compareAt(Words, I + 12, Needle);
    __m256i Any = _mm256_or_si256(_mm256_or_si256(A, B), _mm256_or_si256(C, D));
    if (!_mm256_testz_si256(Any, Any))
      return I + static_cast<size_t>(std::countr_zero(
                     laneMask(A) | laneMask(B) << 4 | laneMask(C) << 8 |
                     laneMask(D) << 12));
  }
  for (; I + 4 <= N; I += 4)
    if (unsigned Mask = laneMask(compareAt(Words, I, Needle)))
      return I + static_cast<size_t>(std::countr_zero(Mask));
  if (I == N)
    return N;
  // The tail: one vector ending at the last word. Its leading lanes were
  // already found unequal, so its first hit is the first hit overall.
  unsigned Mask = laneMask(compareAt(Words, N - 4, Needle));
  return Mask ? N - 4 + static_cast<size_t>(std::countr_zero(Mask)) : N;
}

#else

const bool cswitch::detail::FlatScanHasAvx2 = false;

size_t cswitch::detail::findIndex64Avx2(const void *Data, size_t N,
                                        uint64_t Value) {
  return findIndex64Scalar(Data, N, Value);
}

#endif
