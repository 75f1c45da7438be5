//===- SessionServerSim.cpp - Multi-tenant session-server scenario -------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the session-server scenario declared in SessionServer.h.
/// Three engine-managed contexts back the server state:
///
///   server:tenant-cache  Map<int64_t, int64_t> — the hot per-tenant
///                        cache every request touches (Zipf keys),
///   server:sessions      Set<int64_t> — the churning session registry,
///   server:events        List<int64_t> — the append-mostly event feed
///                        with periodic scans.
///
/// Each epoch creates one fresh instance per context, shares it across
/// all worker threads (valid because the contexts run in a concurrent
/// mode: thread-safe implementations plus shared monitoring profiles),
/// retires the instances once the workers join, and runs an engine
/// evaluation sweep. Under Concurrency::Auto the contention sketch
/// feeds the Contention cost dimension, and the engine migrates the hot
/// map from the mutex-serialized variant to the lock-striped one as the
/// observed thread count grows (DESIGN.md §11).
///
//===----------------------------------------------------------------------===//

#include "apps/SessionServer.h"

#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

using namespace cswitch;

namespace {

/// Read fraction of a tenant's request mix: even tenants model
/// dashboard-style read-heavy traffic, odd tenants ingest-style
/// write-heavy traffic.
double tenantReadFraction(size_t Tenant) {
  return Tenant % 2 == 0 ? 0.9 : 0.6;
}

/// Whether iteration \p I of a worker's loop is timed: one in 64, picked
/// by the top bits of a Fibonacci hash so the sample is spread evenly
/// over the session (every 16th), feed (64th) and scan (1024th) cycles.
bool timedIteration(size_t I) {
  return (static_cast<uint64_t>(I) * 0x9e3779b97f4a7c15ULL) >> 58 == 0;
}

/// The \p Q quantile of \p Samples (nanoseconds), in microseconds.
double quantileUs(std::vector<uint32_t> &Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  size_t Rank =
      static_cast<size_t>(Q * static_cast<double>(Samples.size() - 1));
  std::nth_element(Samples.begin(), Samples.begin() + Rank, Samples.end());
  return Samples[Rank] / 1000.0;
}

/// One worker's request loop over the shared epoch instances; the
/// latencies of its timed iterations go to \p Latency (nanoseconds).
void runWorker(const ServerRunConfig &Config, const ZipfDistribution &Zipf,
               Map<int64_t, int64_t> &Cache, Set<int64_t> &Sessions,
               List<int64_t> &Events, size_t Epoch, size_t Thread,
               std::atomic<uint64_t> &Checksum,
               std::vector<uint32_t> &Latency) {
  using Clock = std::chrono::steady_clock;
  SplitMix64 Rng(Config.Seed * 0x9e3779b9ULL + Epoch * 1315423911ULL +
                 Thread * 2654435761ULL + 1);
  uint64_t Local = 0;
  for (size_t I = 0; I != Config.OpsPerThread; ++I) {
    bool Timed = timedIteration(I);
    Clock::time_point Start;
    if (Timed)
      Start = Clock::now();
    // Requests round-robin the tenants so every thread exercises both
    // read-heavy and write-heavy mixes within one epoch.
    size_t Tenant = (I + Thread) % Config.Tenants;
    int64_t Key = static_cast<int64_t>(Tenant * Config.KeysPerTenant +
                                       Zipf.next(Rng));
    if (Rng.nextBool(tenantReadFraction(Tenant))) {
      int64_t Value = 0;
      if (Cache.lookup(Key, Value))
        Local += static_cast<uint64_t>(Value);
    } else {
      Cache.put(Key, static_cast<int64_t>(I));
    }

    // Session churn: log in a session id, occasionally log one out.
    if (I % 16 == 0) {
      int64_t Session = static_cast<int64_t>(Rng.nextBelow(512));
      if (Rng.nextBool(0.5))
        Sessions.add(Session);
      else
        Sessions.remove(Session);
    }

    // Event feed: append-mostly with a periodic bounded scan (the
    // admin dashboard reading recent events).
    if (I % 64 == 0)
      Events.add(static_cast<int64_t>(I));
    if (I % 1024 == 0) {
      uint64_t Seen = 0;
      Events.forEach([&Seen](const int64_t &) { ++Seen; });
      Local += Seen;
    }
    if (Timed)
      Latency.push_back(static_cast<uint32_t>(std::min<int64_t>(
          (Clock::now() - Start) / std::chrono::nanoseconds(1), UINT32_MAX)));
  }
  Checksum.fetch_add(Local, std::memory_order_relaxed);
}

} // namespace

ServerRunResult cswitch::runSessionServerSim(const ServerRunConfig &Config) {
  assert(Config.Threads > 0 && "need at least one worker");
  assert(Config.Tenants > 0 && Config.KeysPerTenant > 0 && Config.Epochs > 0);
  assert(Config.Mode != Concurrency::None &&
         "instances are shared across threads — a concurrent mode is "
         "required");

  ContextOptions Opts = Config.CtxOptions;
  Opts.concurrency(Config.Mode);

  auto CacheCtx = Switch::makeContext<Map<int64_t, int64_t>>(
      "server:tenant-cache", MapVariant::ChainedHashMap, Config.Rule, Opts);
  auto SessionCtx = Switch::makeContext<Set<int64_t>>(
      "server:sessions", SetVariant::ChainedHashSet, Config.Rule, Opts);
  auto EventCtx = Switch::makeContext<List<int64_t>>(
      "server:events", ListVariant::ArrayList, Config.Rule, Opts);

  ZipfDistribution Zipf(Config.KeysPerTenant, Config.ZipfSkew);
  std::atomic<uint64_t> Checksum{0};
  std::vector<std::vector<uint32_t>> Latency(Config.Threads);
  for (std::vector<uint32_t> &Samples : Latency)
    Samples.reserve(Config.Epochs * (Config.OpsPerThread / 64 + 8));

  ServerRunResult Result;
  EngineStats Before = Switch::stats();
  auto Start = std::chrono::steady_clock::now();
  for (size_t Epoch = 0; Epoch != Config.Epochs; ++Epoch) {
    auto EpochStart = std::chrono::steady_clock::now();
    // Fresh instances pick up any strategy switch from the previous
    // epoch's evaluation; destroying them afterwards publishes their
    // shared profiles into the monitoring windows.
    auto Cache = CacheCtx->createMap();
    auto Sessions = SessionCtx->createSet();
    auto Events = EventCtx->createList();

    std::vector<std::thread> Workers;
    Workers.reserve(Config.Threads);
    for (size_t T = 0; T != Config.Threads; ++T)
      Workers.emplace_back([&, Epoch, T] {
        runWorker(Config, Zipf, Cache, Sessions, Events, Epoch, T, Checksum,
                  Latency[T]);
      });
    for (std::thread &W : Workers)
      W.join();

    { // Retire the generation, then let the engine act on it.
      auto RetireCache = std::move(Cache);
      auto RetireSessions = std::move(Sessions);
      auto RetireEvents = std::move(Events);
    }
    SwitchEngine::global().evaluateAll();
    Result.CacheVariantTrail.push_back(mapVariantName(
        static_cast<MapVariant>(CacheCtx->currentVariantIndex())));
    Result.EpochSeconds.push_back(std::chrono::duration<double>(
        std::chrono::steady_clock::now() - EpochStart).count());
  }
  auto End = std::chrono::steady_clock::now();

  Result.Seconds = std::chrono::duration<double>(End - Start).count();
  Result.Operations = static_cast<uint64_t>(Config.Threads) *
                      Config.OpsPerThread * Config.Epochs;
  Result.OpsPerSecond =
      Result.Seconds > 0.0
          ? static_cast<double>(Result.Operations) / Result.Seconds
          : 0.0;
  Result.Checksum = Checksum.load(std::memory_order_relaxed);
  Result.CacheSwitches = CacheCtx->switchCount();
  Result.TotalSwitches = CacheCtx->switchCount() + SessionCtx->switchCount() +
                         EventCtx->switchCount();
  Result.CacheVariant =
      mapVariantName(static_cast<MapVariant>(CacheCtx->currentVariantIndex()));
  Result.SessionSetVariant = setVariantName(
      static_cast<SetVariant>(SessionCtx->currentVariantIndex()));
  Result.EventListVariant = listVariantName(
      static_cast<ListVariant>(EventCtx->currentVariantIndex()));
  Result.ContendedThreads = CacheCtx->contendedThreads();
  std::vector<uint32_t> Samples;
  for (const std::vector<uint32_t> &Worker : Latency)
    Samples.insert(Samples.end(), Worker.begin(), Worker.end());
  Result.RequestP50Us = quantileUs(Samples, 0.50);
  Result.RequestP99Us = quantileUs(Samples, 0.99);
  Result.Stats = Switch::stats() - Before;
  return Result;
}
