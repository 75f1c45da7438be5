//===- FlatScanTest.cpp - Flat-array membership scan tests -----------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar and AVX2 scan kernels against std::find: every length from
/// 0 to 70 plus 500, every hit position (including the lanes of the
/// overlapping last vector), duplicates, extreme values and misaligned
/// spans. Then a differential test driving each of the nine flat-array
/// variants that scan through detail::findIndex against a reference
/// container, on seeded random operation sequences that cross the
/// kernel's cutover and the adaptive variants' thresholds, and the two
/// concurrent lists scanning under their locks while a writer mutates.
///
//===----------------------------------------------------------------------===//

#include "collections/Factory.h"
#include "collections/detail/FlatScan.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;
using namespace cswitch::detail;

namespace {

using Kernel = size_t (*)(const void *, size_t, uint64_t);

/// The lengths every kernel test covers.
std::vector<size_t> lengths() {
  std::vector<size_t> Ns;
  for (size_t N = 0; N <= 70; ++N)
    Ns.push_back(N);
  Ns.push_back(500);
  return Ns;
}

/// N distinct words, none equal to missWord(); the top bit varies so a
/// kernel comparing anything narrower than 64 bits would collide.
std::vector<uint64_t> distinctWords(size_t N) {
  std::vector<uint64_t> Words(N);
  for (size_t I = 0; I != N; ++I)
    Words[I] = (I % 2 ? 0x8000000000000000ULL : 0) | (I * 2 + 1);
  return Words;
}

uint64_t missWord() { return 2; }

size_t reference(const std::vector<uint64_t> &Words, uint64_t Value) {
  return static_cast<size_t>(std::find(Words.begin(), Words.end(), Value) -
                             Words.begin());
}

void expectEveryHitAndMiss(Kernel Find) {
  for (size_t N : lengths()) {
    std::vector<uint64_t> Words = distinctWords(N);
    EXPECT_EQ(Find(Words.data(), N, missWord()), N) << "N=" << N;
    // A value differing from a present one in the top bit only.
    if (N) {
      EXPECT_EQ(Find(Words.data(), N, Words[0] ^ 0x8000000000000000ULL), N)
          << "N=" << N;
    }
    for (size_t Pos = 0; Pos != N; ++Pos)
      ASSERT_EQ(Find(Words.data(), N, Words[Pos]), Pos)
          << "N=" << N << " Pos=" << Pos;
  }
}

void expectFirstDuplicateWins(Kernel Find) {
  for (size_t N = 2; N <= 40; ++N) {
    for (size_t First = 0; First != N; ++First) {
      for (size_t Second = First + 1; Second != N; ++Second) {
        std::vector<uint64_t> Words = distinctWords(N);
        Words[First] = Words[Second] = missWord();
        ASSERT_EQ(Find(Words.data(), N, missWord()), First)
            << "N=" << N << " First=" << First << " Second=" << Second;
      }
    }
  }
  // Every word equal: index 0 at every length (and N = 0 when empty).
  for (size_t N : lengths()) {
    std::vector<uint64_t> Same(N, 7);
    EXPECT_EQ(Find(Same.data(), N, 7), 0u) << "N=" << N;
  }
}

void expectExtremes(Kernel Find) {
  const uint64_t Min = std::bit_cast<uint64_t>(INT64_MIN);
  const uint64_t Max = std::bit_cast<uint64_t>(INT64_MAX);
  const uint64_t AllOnes = UINT64_MAX;
  for (size_t N : {4u, 5u, 16u, 17u, 23u, 64u, 67u}) {
    std::vector<uint64_t> Words = distinctWords(N);
    Words[N - 1] = Min;
    Words[N / 2] = Max;
    Words[1] = AllOnes;
    EXPECT_EQ(Find(Words.data(), N, Min), N - 1) << "N=" << N;
    EXPECT_EQ(Find(Words.data(), N, Max), N / 2) << "N=" << N;
    EXPECT_EQ(Find(Words.data(), N, AllOnes), 1u) << "N=" << N;
    EXPECT_EQ(Find(Words.data(), N, 0), reference(Words, 0)) << "N=" << N;
  }
}

void expectMisalignedSpans(Kernel Find) {
  for (size_t N : lengths()) {
    std::vector<uint64_t> Words = distinctWords(N + 1);
    // A sub-span one element in: 8-byte but not vector aligned.
    for (size_t Pos = 0; Pos != N; ++Pos)
      ASSERT_EQ(Find(Words.data() + 1, N, Words[Pos + 1]), Pos)
          << "N=" << N << " Pos=" << Pos;
    EXPECT_EQ(Find(Words.data() + 1, N, Words[0]), N) << "N=" << N;
    // A span at an odd byte offset.
    std::vector<unsigned char> Bytes(N * 8 + 1);
    if (N)
      std::memcpy(Bytes.data() + 1, Words.data(), N * 8);
    for (size_t Pos = 0; Pos != N; ++Pos)
      ASSERT_EQ(Find(Bytes.data() + 1, N, Words[Pos]), Pos)
          << "N=" << N << " Pos=" << Pos;
    EXPECT_EQ(Find(Bytes.data() + 1, N, missWord()), N) << "N=" << N;
  }
}

TEST(FlatScan, ScalarFindsEveryHitAndMiss) {
  expectEveryHitAndMiss(findIndex64Scalar);
}

TEST(FlatScan, Avx2FindsEveryHitAndMiss) {
  if (!FlatScanHasAvx2)
    GTEST_SKIP() << "this CPU has no AVX2";
  expectEveryHitAndMiss(findIndex64Avx2);
}

TEST(FlatScan, ScalarFirstDuplicateWins) {
  expectFirstDuplicateWins(findIndex64Scalar);
}

TEST(FlatScan, Avx2FirstDuplicateWins) {
  if (!FlatScanHasAvx2)
    GTEST_SKIP() << "this CPU has no AVX2";
  expectFirstDuplicateWins(findIndex64Avx2);
}

TEST(FlatScan, ScalarHandlesExtremeValues) {
  expectExtremes(findIndex64Scalar);
}

TEST(FlatScan, Avx2HandlesExtremeValues) {
  if (!FlatScanHasAvx2)
    GTEST_SKIP() << "this CPU has no AVX2";
  expectExtremes(findIndex64Avx2);
}

TEST(FlatScan, ScalarHandlesMisalignedSpans) {
  expectMisalignedSpans(findIndex64Scalar);
}

TEST(FlatScan, Avx2HandlesMisalignedSpans) {
  if (!FlatScanHasAvx2)
    GTEST_SKIP() << "this CPU has no AVX2";
  expectMisalignedSpans(findIndex64Avx2);
}

enum class SignedTag : int64_t {};
enum class UnsignedTag : uint64_t {};

/// findIndex over \p Values agrees with std::find for every element and
/// for \p Miss, at every length the kernel tests use.
template <typename T>
void expectFindIndexMatchesStdFind(const std::vector<T> &Values,
                                   const T &Miss) {
  for (size_t N = 0; N <= Values.size(); ++N) {
    const T *Data = Values.data();
    auto Ref = [&](const T &V) {
      return static_cast<size_t>(std::find(Data, Data + N, V) - Data);
    };
    EXPECT_EQ(findIndex(Data, N, Miss), Ref(Miss)) << "N=" << N;
    for (size_t Pos = 0; Pos != N; ++Pos)
      ASSERT_EQ(findIndex(Data, N, Values[Pos]), Ref(Values[Pos]))
          << "N=" << N << " Pos=" << Pos;
  }
}

template <typename T> std::vector<T> valuesOf(size_t N) {
  std::vector<T> Values;
  for (uint64_t W : distinctWords(N))
    Values.push_back(static_cast<T>(W));
  return Values;
}

TEST(FlatScan, FindIndexMatchesStdFindForEveryElementType) {
  static_assert(IsFlatScanWord<int64_t> && IsFlatScanWord<uint64_t>);
  static_assert(IsFlatScanWord<SignedTag> && IsFlatScanWord<UnsignedTag>);
  static_assert(!IsFlatScanWord<int32_t> && !IsFlatScanWord<double>);
  static_assert(!IsFlatScanWord<std::string>);
  expectFindIndexMatchesStdFind(valuesOf<int64_t>(70), int64_t{2});
  expectFindIndexMatchesStdFind(valuesOf<uint64_t>(70), uint64_t{2});
  expectFindIndexMatchesStdFind(valuesOf<SignedTag>(70), SignedTag{2});
  expectFindIndexMatchesStdFind(valuesOf<UnsignedTag>(70), UnsignedTag{2});
  expectFindIndexMatchesStdFind(valuesOf<int32_t>(70), int32_t{2});
}

TEST(FlatScan, MinusOneMatchesTheAllOnesWord) {
  std::vector<uint64_t> Unsigned(40, 5);
  Unsigned[33] = UINT64_MAX;
  EXPECT_EQ(findIndex(Unsigned.data(), Unsigned.size(),
                      static_cast<uint64_t>(-1)),
            33u);
  std::vector<int64_t> Signed(40, 5);
  Signed[33] = -1;
  EXPECT_EQ(findIndex(Signed.data(), Signed.size(), int64_t{-1}), 33u);
  EXPECT_EQ(findIndex(Signed.data(), Signed.size(), INT64_MAX), 40u);
  Signed[20] = INT64_MIN;
  EXPECT_EQ(findIndex(Signed.data(), Signed.size(), INT64_MIN), 20u);
}

TEST(FlatScan, FloatingPointKeepsValueEquality) {
  // -0.0 == 0.0 although their bits differ: doubles must not take the
  // word kernel.
  std::vector<double> Values(40, 1.5);
  Values[25] = -0.0;
  EXPECT_EQ(findIndex(Values.data(), Values.size(), 0.0), 25u);
}

TEST(FlatScan, StringsKeepTheInlineScan) {
  std::vector<std::string> Values;
  for (int I = 0; I != 40; ++I)
    Values.push_back(std::to_string(I) + "s");
  EXPECT_EQ(findIndex(Values.data(), Values.size(), std::string("31s")), 31u);
  EXPECT_EQ(findIndex(Values.data(), Values.size(), std::string("x")), 40u);
}

//===----------------------------------------------------------------------===//
// The nine scanning variants against reference containers
//===----------------------------------------------------------------------===//

/// The key domain: the extremes, then spread words. 160 keys let sets
/// and maps grow past every adaptive threshold (80/40/50).
template <typename T> T keyAt(uint64_t I) {
  static const uint64_t Extremes[] = {std::bit_cast<uint64_t>(INT64_MIN),
                                      std::bit_cast<uint64_t>(INT64_MAX),
                                      UINT64_MAX, 0};
  return static_cast<T>(I < 4 ? Extremes[I]
                              : I * 0x9e3779b97f4a7c15ULL);
}

constexpr uint64_t KeyDomain = 160;
constexpr int StepsPerRun = 4000;
/// Every run must grow past the largest adaptive threshold.
constexpr size_t PeakFloor = 80;

/// Adds dominate the first half of a run, removes the second, so every
/// run grows past the cutover and thresholds and then shrinks again.
bool growing(int Step) { return Step < StepsPerRun / 2; }

template <typename T> void driveList(ListVariant Variant, uint64_t Seed) {
  SCOPED_TRACE(listVariantName(Variant));
  SplitMix64 Rng(Seed);
  std::unique_ptr<ListImpl<T>> List = makeListImpl<T>(Variant);
  std::vector<T> Ref;
  size_t Peak = 0;
  for (int Step = 0; Step != StepsPerRun; ++Step) {
    T Key = keyAt<T>(Rng.nextBelow(KeyDomain));
    uint64_t Roll = Rng.nextBelow(100);
    bool Present = std::find(Ref.begin(), Ref.end(), Key) != Ref.end();
    if (Roll < (growing(Step) ? 45u : 20u)) {
      List->push_back(Key);
      Ref.push_back(Key);
    } else if (Roll < 70) {
      ASSERT_EQ(List->contains(Key), Present) << "step " << Step;
    } else {
      ASSERT_EQ(List->removeValue(Key), Present) << "step " << Step;
      if (Present)
        Ref.erase(std::find(Ref.begin(), Ref.end(), Key));
    }
    ASSERT_EQ(List->size(), Ref.size()) << "step " << Step;
    Peak = std::max(Peak, Ref.size());
  }
  EXPECT_GT(Peak, PeakFloor);
  std::vector<T> Seen;
  List->forEach([&Seen](const T &V) { Seen.push_back(V); });
  EXPECT_EQ(Seen, Ref);
}

template <typename T> void driveSet(SetVariant Variant, uint64_t Seed) {
  SCOPED_TRACE(setVariantName(Variant));
  SplitMix64 Rng(Seed);
  std::unique_ptr<SetImpl<T>> Set = makeSetImpl<T>(Variant);
  std::set<T> Ref;
  size_t Peak = 0;
  for (int Step = 0; Step != StepsPerRun; ++Step) {
    T Key = keyAt<T>(Rng.nextBelow(KeyDomain));
    uint64_t Roll = Rng.nextBelow(100);
    if (Roll < (growing(Step) ? 45u : 20u))
      ASSERT_EQ(Set->add(Key), Ref.insert(Key).second) << "step " << Step;
    else if (Roll < 70)
      ASSERT_EQ(Set->contains(Key), Ref.count(Key) != 0) << "step " << Step;
    else
      ASSERT_EQ(Set->remove(Key), Ref.erase(Key) != 0) << "step " << Step;
    ASSERT_EQ(Set->size(), Ref.size()) << "step " << Step;
    Peak = std::max(Peak, Ref.size());
  }
  EXPECT_GT(Peak, PeakFloor);
  std::set<T> Seen;
  Set->forEach([&Seen](const T &V) { Seen.insert(V); });
  EXPECT_EQ(Seen, Ref);
}

template <typename T> void driveMap(MapVariant Variant, uint64_t Seed) {
  SCOPED_TRACE(mapVariantName(Variant));
  SplitMix64 Rng(Seed);
  std::unique_ptr<MapImpl<T, int64_t>> Map = makeMapImpl<T, int64_t>(Variant);
  std::map<T, int64_t> Ref;
  size_t Peak = 0;
  for (int Step = 0; Step != StepsPerRun; ++Step) {
    T Key = keyAt<T>(Rng.nextBelow(KeyDomain));
    uint64_t Roll = Rng.nextBelow(100);
    auto It = Ref.find(Key);
    if (Roll < (growing(Step) ? 45u : 20u)) {
      int64_t Value = Step;
      ASSERT_EQ(Map->put(Key, Value), It == Ref.end()) << "step " << Step;
      Ref[Key] = Value;
    } else if (Roll < 70) {
      const int64_t *Got = Map->get(Key);
      ASSERT_EQ(Got != nullptr, It != Ref.end()) << "step " << Step;
      if (Got) {
        ASSERT_EQ(*Got, It->second) << "step " << Step;
      }
      ASSERT_EQ(Map->containsKey(Key), It != Ref.end()) << "step " << Step;
    } else {
      ASSERT_EQ(Map->remove(Key), It != Ref.end()) << "step " << Step;
      if (It != Ref.end())
        Ref.erase(It);
    }
    ASSERT_EQ(Map->size(), Ref.size()) << "step " << Step;
    Peak = std::max(Peak, Ref.size());
  }
  EXPECT_GT(Peak, PeakFloor);
  std::map<T, int64_t> Seen;
  Map->forEach([&Seen](const T &K, const int64_t &V) { Seen[K] = V; });
  EXPECT_EQ(Seen, Ref);
}

constexpr uint64_t Seeds[] = {1, 42, 0x5eed};

class FlatScanListVariants : public ::testing::TestWithParam<ListVariant> {};

TEST_P(FlatScanListVariants, MatchReferenceOnRandomSequences) {
  for (uint64_t Seed : Seeds) {
    driveList<int64_t>(GetParam(), Seed);
    driveList<UnsignedTag>(GetParam(), Seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scanning, FlatScanListVariants,
    ::testing::Values(ListVariant::ArrayList, ListVariant::AdaptiveList,
                      ListVariant::HashArrayList, ListVariant::MutexList,
                      ListVariant::SnapshotList),
    [](const ::testing::TestParamInfo<ListVariant> &Info) {
      return std::string(listVariantName(Info.param));
    });

class FlatScanSetVariants : public ::testing::TestWithParam<SetVariant> {};

TEST_P(FlatScanSetVariants, MatchReferenceOnRandomSequences) {
  for (uint64_t Seed : Seeds) {
    driveSet<int64_t>(GetParam(), Seed);
    driveSet<UnsignedTag>(GetParam(), Seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scanning, FlatScanSetVariants,
    ::testing::Values(SetVariant::ArraySet, SetVariant::AdaptiveSet),
    [](const ::testing::TestParamInfo<SetVariant> &Info) {
      return std::string(setVariantName(Info.param));
    });

class FlatScanMapVariants : public ::testing::TestWithParam<MapVariant> {};

TEST_P(FlatScanMapVariants, MatchReferenceOnRandomSequences) {
  for (uint64_t Seed : Seeds) {
    driveMap<int64_t>(GetParam(), Seed);
    driveMap<UnsignedTag>(GetParam(), Seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scanning, FlatScanMapVariants,
    ::testing::Values(MapVariant::ArrayMap, MapVariant::AdaptiveMap),
    [](const ::testing::TestParamInfo<MapVariant> &Info) {
      return std::string(mapVariantName(Info.param));
    });

/// Readers scan a shared concurrent list while a writer appends and
/// removes churn values: stable members are always found, absent keys
/// never are.
class FlatScanConcurrentLists : public ::testing::TestWithParam<ListVariant> {
};

TEST_P(FlatScanConcurrentLists, ReadersScanWhileWriterMutates) {
  std::unique_ptr<ListImpl<int64_t>> List = makeListImpl<int64_t>(GetParam());
  constexpr int64_t Stable = 48; // Well past the cutover.
  for (int64_t V = 0; V != Stable; ++V)
    List->push_back(V);
  std::thread Writer([&List] {
    for (int64_t Round = 0; Round != 300; ++Round) {
      for (int64_t V = 0; V != 8; ++V)
        List->push_back(1000 + V);
      for (int64_t V = 0; V != 8; ++V)
        EXPECT_TRUE(List->removeValue(1000 + V));
    }
  });
  auto Reader = [&List](int64_t Offset) {
    for (int Round = 0; Round != 2000; ++Round) {
      int64_t V = (Round + Offset) % Stable;
      EXPECT_TRUE(List->contains(V));
      EXPECT_FALSE(List->contains(-1 - V));
    }
  };
  std::thread ReaderA(Reader, 0);
  std::thread ReaderB(Reader, 17);
  Writer.join();
  ReaderA.join();
  ReaderB.join();
  EXPECT_EQ(List->size(), static_cast<size_t>(Stable));
}

INSTANTIATE_TEST_SUITE_P(
    Scanning, FlatScanConcurrentLists,
    ::testing::Values(ListVariant::MutexList, ListVariant::SnapshotList),
    [](const ::testing::TestParamInfo<ListVariant> &Info) {
      return std::string(listVariantName(Info.param));
    });

} // namespace
