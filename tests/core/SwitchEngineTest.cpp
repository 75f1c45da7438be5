//===- SwitchEngineTest.cpp - Engine and top-level API tests ------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "WaitUntil.h"
#include "core/Switch.h"
#include "model/DefaultModel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace cswitch;

namespace {

std::shared_ptr<const PerformanceModel> defaultModel() {
  static auto Model =
      std::make_shared<const PerformanceModel>(defaultPerformanceModel());
  return Model;
}

ContextOptions quietOptions(size_t Window = 10) {
  ContextOptions Options;
  Options.WindowSize = Window;
  Options.FinishedRatio = 0.6;
  Options.LogEvents = false;
  return Options;
}

void lookupHeavyWorkload(ListContext<int64_t> &Ctx, int Instances) {
  for (int I = 0; I != Instances; ++I) {
    List<int64_t> L = Ctx.createList();
    for (int64_t V = 0; V != 400; ++V)
      L.add(V);
    for (int64_t V = 0; V != 2000; ++V)
      (void)L.contains(V);
  }
}

TEST(SwitchEngine, RegisterEvaluateUnregister) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:reg", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  Engine.registerContext(&Ctx);
  EXPECT_EQ(Engine.contextCount(), 1u);
  lookupHeavyWorkload(Ctx, 10);
  EXPECT_EQ(Engine.evaluateAll(), 1u);
  EXPECT_EQ(Engine.totalSwitches(), 1u);
  Engine.unregisterContext(&Ctx);
  EXPECT_EQ(Engine.contextCount(), 0u);
  EXPECT_EQ(Engine.totalSwitches(), 0u);
}

TEST(SwitchEngine, EvaluateAllCountsTransitionsAcrossContexts) {
  SwitchEngine Engine;
  ListContext<int64_t> A("e:a", ListVariant::ArrayList, defaultModel(),
                         SelectionRule::timeRule(), quietOptions());
  ListContext<int64_t> B("e:b", ListVariant::ArrayList, defaultModel(),
                         SelectionRule::timeRule(), quietOptions());
  Engine.registerContext(&A);
  Engine.registerContext(&B);
  lookupHeavyWorkload(A, 10);
  // B gets no workload: evaluates to nothing.
  EXPECT_EQ(Engine.evaluateAll(), 1u);
  Engine.unregisterContext(&A);
  Engine.unregisterContext(&B);
}

TEST(SwitchEngine, UnregisterUnknownContextIsNoop) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:unknown", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  Engine.unregisterContext(&Ctx); // never registered.
  EXPECT_EQ(Engine.contextCount(), 0u);
}

TEST(SwitchEngine, BackgroundThreadEvaluatesPeriodically) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:bg", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions());
  Engine.registerContext(&Ctx);
  lookupHeavyWorkload(Ctx, 10);
  Engine.start(std::chrono::milliseconds(5));
  EXPECT_TRUE(Engine.isRunning());
  // The paper's monitoring-rate task should pick the transition up.
  waitUntil([&Ctx] { return Ctx.switchCount() != 0; });
  Engine.stop();
  EXPECT_FALSE(Engine.isRunning());
  EXPECT_EQ(Ctx.switchCount(), 1u);
  Engine.unregisterContext(&Ctx);
}

TEST(SwitchEngine, StartTwiceAndStopTwiceAreSafe) {
  SwitchEngine Engine;
  Engine.start(std::chrono::milliseconds(10));
  Engine.start(std::chrono::milliseconds(10));
  EXPECT_TRUE(Engine.isRunning());
  Engine.stop();
  Engine.stop();
  EXPECT_FALSE(Engine.isRunning());
}

TEST(SwitchEngine, ConcurrentCreationWhileEvaluating) {
  SwitchEngine Engine;
  ListContext<int64_t> Ctx("e:conc", ListVariant::ArrayList,
                           defaultModel(), SelectionRule::timeRule(),
                           quietOptions(50));
  Engine.registerContext(&Ctx);
  Engine.start(std::chrono::milliseconds(1));
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T) {
    Workers.emplace_back([&Ctx, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        List<int64_t> L = Ctx.createList();
        for (int64_t V = 0; V != 64; ++V)
          L.add(V);
        for (int64_t V = 0; V != 128; ++V)
          (void)L.contains(V);
      }
    });
  }
  waitUntil([&Ctx] {
    return Ctx.instancesCreated() > 100 && Ctx.evaluationCount() > 0;
  });
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  Engine.stop();
  Engine.unregisterContext(&Ctx);
  EXPECT_GT(Ctx.instancesCreated(), 100u);
  EXPECT_GT(Ctx.evaluationCount(), 0u);
}

TEST(SwitchApi, GlobalModelIsSharedAndReplaceable) {
  std::shared_ptr<const PerformanceModel> Before = Switch::model();
  ASSERT_NE(Before, nullptr);
  auto Custom = std::make_shared<const PerformanceModel>();
  Switch::setModel(Custom);
  EXPECT_EQ(Switch::model(), Custom);
  Switch::setModel(Before);
}

TEST(SwitchApi, ContextHandlesAutoUnregister) {
  size_t Before = SwitchEngine::global().contextCount();
  {
    auto Ctx = Switch::makeContext<Set<int64_t>>(
        "api:set", SetVariant::ChainedHashSet);
    EXPECT_EQ(SwitchEngine::global().contextCount(), Before + 1);
    Set<int64_t> S = Ctx->createSet();
    S.add(1);
  }
  EXPECT_EQ(SwitchEngine::global().contextCount(), Before);
}

} // namespace
