//===- TopologyTest.cpp - NUMA detection & striping primitives -----------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Topology::detect is a pure function of a sysfs-shaped directory, so
// these tests build fake /sys/devices/system/node roots in a temp dir
// and exercise every parsing and fallback path without caring what
// machine they run on. The striping primitives (StripedCounters,
// currentStripe) are checked for exact merge totals under concurrency.
//
//===----------------------------------------------------------------------===//

#include "support/Topology.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace cswitch;

namespace {

/// A scratch directory shaped like /sys/devices/system/node, removed on
/// destruction.
class FakeSysfs {
public:
  FakeSysfs() {
    Root = std::filesystem::temp_directory_path() /
           ("cswitch-topo-test-" +
            std::to_string(
                reinterpret_cast<uintptr_t>(static_cast<void *>(this))));
    std::filesystem::create_directories(Root);
  }
  ~FakeSysfs() {
    std::error_code Ec;
    std::filesystem::remove_all(Root, Ec);
  }

  /// Creates node<Id>/cpulist containing \p CpuList.
  void addNode(unsigned Id, const std::string &CpuList) {
    std::filesystem::path Dir = Root / ("node" + std::to_string(Id));
    std::filesystem::create_directories(Dir);
    std::ofstream Out(Dir / "cpulist");
    Out << CpuList << "\n";
  }

  /// Creates node<Id> with no cpulist file (a memory-only node).
  void addMemoryOnlyNode(unsigned Id) {
    std::filesystem::create_directories(Root /
                                        ("node" + std::to_string(Id)));
  }

  std::string path() const { return Root.string(); }

private:
  std::filesystem::path Root;
};

TEST(Topology, MissingDirectoryFallsBackToSingleNode) {
  Topology T = Topology::detect("/nonexistent/cswitch-no-such-dir");
  EXPECT_EQ(T.nodeCount(), 1u);
  EXPECT_GE(T.cpuCount(), 1u);
  EXPECT_FALSE(T.synthetic());
  EXPECT_EQ(T.currentNode(), 0u);
}

TEST(Topology, DetectsTwoNodesFromRangeCpuLists) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "0-3");
  Sysfs.addNode(1, "4-7");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 2u);
  EXPECT_EQ(T.cpuCount(), 8u);
  EXPECT_FALSE(T.synthetic());
  for (unsigned Cpu = 0; Cpu != 4; ++Cpu)
    EXPECT_EQ(T.nodeOfCpu(Cpu), 0u) << "cpu " << Cpu;
  for (unsigned Cpu = 4; Cpu != 8; ++Cpu)
    EXPECT_EQ(T.nodeOfCpu(Cpu), 1u) << "cpu " << Cpu;
  EXPECT_EQ(T.cpusOfNode(0), (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(T.cpusOfNode(1), (std::vector<unsigned>{4, 5, 6, 7}));
  EXPECT_TRUE(T.cpusOfNode(2).empty());
}

TEST(Topology, ParsesMixedListsAndSingletons) {
  FakeSysfs Sysfs;
  // Interleaved SMT-sibling style lists with singletons and ranges.
  Sysfs.addNode(0, "0-1,4,6-7");
  Sysfs.addNode(1, "2-3,5");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 2u);
  EXPECT_EQ(T.cpuCount(), 8u);
  EXPECT_EQ(T.nodeOfCpu(0), 0u);
  EXPECT_EQ(T.nodeOfCpu(2), 1u);
  EXPECT_EQ(T.nodeOfCpu(4), 0u);
  EXPECT_EQ(T.nodeOfCpu(5), 1u);
  EXPECT_EQ(T.nodeOfCpu(6), 0u);
  EXPECT_EQ(T.cpusOfNode(0), (std::vector<unsigned>{0, 1, 4, 6, 7}));
  EXPECT_EQ(T.cpusOfNode(1), (std::vector<unsigned>{2, 3, 5}));
}

TEST(Topology, SparseNodeIdsAreRenumberedDensely) {
  FakeSysfs Sysfs;
  // Real machines expose e.g. node0/node2 with node1 unpopulated.
  Sysfs.addNode(0, "0-1");
  Sysfs.addNode(2, "2-3");
  Sysfs.addNode(8, "4-5");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 3u);
  EXPECT_EQ(T.nodeOfCpu(0), 0u);
  EXPECT_EQ(T.nodeOfCpu(2), 1u); // node2 -> dense index 1
  EXPECT_EQ(T.nodeOfCpu(4), 2u); // node8 -> dense index 2
}

TEST(Topology, MemoryOnlyNodesAreSkipped) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "0-3");
  Sysfs.addMemoryOnlyNode(1); // CXL-style memory node: no cpulist
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 1u);
  EXPECT_EQ(T.cpuCount(), 4u);
}

TEST(Topology, MalformedCpuListFallsBackToSingleNode) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "banana");
  Topology T = Topology::detect(Sysfs.path());
  EXPECT_EQ(T.nodeCount(), 1u);
}

TEST(Topology, OverrideWinsOverDetection) {
  FakeSysfs Sysfs;
  Sysfs.addNode(0, "0-7");
  Topology T = Topology::detect(Sysfs.path(), 4);
  EXPECT_EQ(T.nodeCount(), 4u);
  EXPECT_TRUE(T.synthetic());
  // Synthetic topologies spread cpus (and threads) over every node.
  EXPECT_EQ(T.nodeOfCpu(0), 0u);
  EXPECT_EQ(T.nodeOfCpu(5), 1u);
  EXPECT_TRUE(T.cpusOfNode(0).empty());
}

TEST(Topology, OverrideIsCappedAt64) {
  Topology T = Topology::detect("/nonexistent", 1000);
  EXPECT_LE(T.nodeCount(), 64u);
  EXPECT_TRUE(T.synthetic());
}

TEST(Topology, SyntheticCurrentNodeIsStablePerThreadAndInRange) {
  Topology T = Topology::detect("/nonexistent", 4);
  // Round-robin assignment: each thread sees one stable node, and a
  // batch of threads collectively covers more than one.
  std::atomic<uint32_t> SeenMask{0};
  std::atomic<bool> Mismatch{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I != 8; ++I) {
    Threads.emplace_back([&T, &SeenMask, &Mismatch] {
      unsigned First = T.currentNode();
      for (int K = 0; K != 100; ++K)
        if (T.currentNode() != First)
          Mismatch.store(true);
      if (First >= T.nodeCount())
        Mismatch.store(true);
      SeenMask.fetch_or(1u << First);
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_FALSE(Mismatch.load());
  // 8 round-robin threads over 4 nodes touch every node.
  EXPECT_EQ(__builtin_popcount(SeenMask.load()), 4);
}

TEST(Topology, SystemTopologyIsSane) {
  const Topology &T = Topology::system();
  EXPECT_GE(T.nodeCount(), 1u);
  EXPECT_GE(T.cpuCount(), 1u);
  EXPECT_LT(T.currentNode(), T.nodeCount());
}

TEST(Topology, CurrentStripeFoldsToStructureWidth) {
  EXPECT_EQ(currentStripe(1), 0u);
  for (unsigned Width : {2u, 3u, 8u})
    EXPECT_LT(currentStripe(Width), Width);
}

TEST(Topology, CurrentCpuStripeFoldsToStructureWidth) {
  EXPECT_EQ(currentCpuStripe(1), 0u);
  for (unsigned Width : {2u, 3u, 8u, 64u})
    EXPECT_LT(currentCpuStripe(Width), Width);
  unsigned Stripes = cpuStripeCount();
  EXPECT_GE(Stripes, 1u);
  EXPECT_LE(Stripes, 64u);
  EXPECT_EQ(Stripes & (Stripes - 1), 0u) << "a power of two";
  EXPECT_GE(Stripes, std::min(Topology::system().cpuCount(), 64u));
}

TEST(StripedCounters, SingleStripeBehavesLikePlainCounters) {
  StripedCounters<2> C(1);
  EXPECT_EQ(C.stripes(), 1u);
  C.add(0);
  C.add(0, 41);
  C.add(1, 7);
  EXPECT_EQ(C.sum(0), 42u);
  EXPECT_EQ(C.sum(1), 7u);
}

TEST(StripedCounters, ExplicitStripesMergeExactly) {
  StripedCounters<2> C(4);
  EXPECT_EQ(C.stripes(), 4u);
  for (unsigned S = 0; S != 4; ++S) {
    C.addOnStripe(S, 0, S + 1); // 1+2+3+4 = 10
    C.addOnStripe(S, 1, 100);
  }
  EXPECT_EQ(C.sum(0), 10u);
  EXPECT_EQ(C.sum(1), 400u);
}

TEST(StripedCounters, ConcurrentAddsAreNeverLost) {
  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 20000;
  StripedCounters<2> C(4);
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T) {
    Workers.emplace_back([&C, T] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        C.add(0);
        // Mix in explicit-stripe adds so several stripes see traffic
        // even on a single-node machine.
        C.addOnStripe(static_cast<unsigned>(T), 1, 2);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.sum(0), Threads * PerThread);
  EXPECT_EQ(C.sum(1), Threads * PerThread * 2);
}

TEST(StripedCounters, StripesAreCacheLineSized) {
  StripedCounters<2> C(3);
  EXPECT_EQ(C.memoryBytes(), 3 * CacheLineBytes);
}

} // namespace
