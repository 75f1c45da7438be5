//===- SharedProfileTest.cpp - Multi-owner profile unit tests ---------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// SharedProfile stripes its counters per cpu, so concurrent writers land
// on different stripes (or, after a migration, briefly on one another's).
// Whatever the placement, the merged snapshot must be exact once the
// writers have stopped.
//
//===----------------------------------------------------------------------===//

#include "profile/SharedProfile.h"

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

constexpr unsigned Threads = 8;
constexpr uint64_t OpsPerThread = 20000;

/// The operation kind and count thread \p T records at step \p I.
OperationKind kindAt(unsigned T, uint64_t I) {
  return AllOperationKinds[(I + T) % NumOperationKinds];
}
uint64_t countAt(uint64_t I) { return 1 + I % 3; }

/// The size thread \p T records at step \p I (distinct per thread, so
/// the maximum comes from one known thread).
uint64_t sizeAt(unsigned T, uint64_t I) { return T * OpsPerThread + I; }

/// cpuCount() rounded up to a power of two and clamped to 64, spelled
/// out independently of cpuStripeCount().
unsigned expectedStripes() {
  unsigned Cpus = Topology::system().cpuCount();
  unsigned Stripes = 1;
  while (Stripes < Cpus && Stripes < 64)
    Stripes *= 2;
  return Stripes;
}

TEST(SharedProfile, DefaultStripesFollowCpuCount) {
  SharedProfile Profile;
  EXPECT_EQ(Profile.stripes(), expectedStripes());
  EXPECT_EQ(ContentionSketch().stripes(), expectedStripes());
  EXPECT_EQ(SharedProfile(nullptr, 3).stripes(), 3u);
}

TEST(SharedProfile, ConcurrentRecordsMergeExactly) {
  ContentionSketch Sketch;
  SharedProfile Profile(&Sketch);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&Profile, T] {
      for (uint64_t I = 0; I != OpsPerThread; ++I) {
        Profile.record(kindAt(T, I), countAt(I));
        Profile.recordSize(sizeAt(T, I));
      }
    });
  for (std::thread &W : Workers)
    W.join();

  std::array<uint64_t, NumOperationKinds> Expected = {};
  uint64_t Total = 0;
  for (unsigned T = 0; T != Threads; ++T)
    for (uint64_t I = 0; I != OpsPerThread; ++I) {
      Expected[static_cast<size_t>(kindAt(T, I))] += countAt(I);
      Total += countAt(I);
    }
  WorkloadProfile Merged = Profile.snapshot();
  for (size_t K = 0; K != NumOperationKinds; ++K)
    EXPECT_EQ(Merged.Counts[K], Expected[K])
        << operationKindName(AllOperationKinds[K]);
  EXPECT_EQ(Merged.MaxSize, sizeAt(Threads - 1, OpsPerThread - 1));
  EXPECT_EQ(Sketch.operations(), Total);
}

} // namespace
