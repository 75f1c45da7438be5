//===- SessionServer.h - Multi-tenant session-server scenario ---*- C++ -*-===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant session-server scenario driving the concurrent
/// collection tier (DESIGN.md §11): a hot per-tenant cache map hit by
/// every worker thread with Zipf-skewed keys, a churning session
/// registry set, and an append-mostly event feed list. Unlike the
/// DaCapo-substitute apps (Apps.h), every target collection instance is
/// shared across threads, so the contexts run in a concurrent mode and
/// the engine selects the synchronization strategy (mutex-serialized
/// vs. lock-striped/copy-on-write) from the observed contention.
///
/// The workload is epoch-based: each epoch instantiates fresh
/// collections from the contexts (picking up any strategy switch),
/// hammers them from every worker, then retires them so their profiles
/// publish into monitoring windows.
///
//===----------------------------------------------------------------------===//

#ifndef CSWITCH_APPS_SESSIONSERVER_H
#define CSWITCH_APPS_SESSIONSERVER_H

#include "core/Switch.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cswitch {

/// Parameters of one session-server execution.
struct ServerRunConfig {
  /// Worker threads hammering the shared collections.
  size_t Threads = 2;
  /// Tenants sharing the cache; even tenants are read-heavy (90%
  /// lookups), odd tenants write-heavy (60% lookups) — the mixed
  /// read/write population of a real session store.
  size_t Tenants = 4;
  /// Distinct cache keys per tenant (the Zipf support).
  size_t KeysPerTenant = 1024;
  /// Request-loop iterations per worker per epoch.
  size_t OpsPerThread = 20000;
  /// Epochs (collection generations); each ends with an engine
  /// evaluation sweep, so strategy switches take effect on the next
  /// epoch's instances.
  size_t Epochs = 8;
  /// Zipf skew of the key popularity (~0.99 is the classic web/cache
  /// skew; 0 degenerates to uniform).
  double ZipfSkew = 0.99;
  uint64_t Seed = 1;
  /// Synchronization tier of the three contexts. Must not be None —
  /// the instances are shared across threads. Mutex/Sharded pin a
  /// strategy (bench baselines); Auto lets contention decide.
  Concurrency Mode = Concurrency::Auto;
  SelectionRule Rule = SelectionRule::timeRule();
  /// Options of the three contexts (the concurrency mode above is
  /// applied on top). The default shrinks the monitoring window to the
  /// epoch granularity: one instance per context finishes per epoch.
  ContextOptions CtxOptions = ContextOptions{}.windowSize(4)
                                  .finishedRatio(0.5)
                                  .logEvents(false);
};

/// Outcome of one session-server execution.
struct ServerRunResult {
  double Seconds = 0.0;      ///< Wall-clock time of the worker epochs.
  double OpsPerSecond = 0.0; ///< Request-loop iterations per second.
  uint64_t Operations = 0;   ///< Total request-loop iterations.
  /// Interleaving-dependent fold of every lookup result (keeps the
  /// work observable; NOT config-invariant like AppResult::Checksum).
  uint64_t Checksum = 0;
  size_t CacheSwitches = 0;  ///< Strategy switches of the cache context.
  size_t TotalSwitches = 0;  ///< Switches across all three contexts.
  std::string CacheVariant;  ///< Final variant of the hot cache map.
  /// Cache variant at the end of each epoch (the switch trail).
  std::vector<std::string> CacheVariantTrail;
  /// Wall-clock seconds of each epoch: its workers plus the retire and
  /// evaluation sweep that end it (they sum to Seconds).
  std::vector<double> EpochSeconds;
  /// Request latency over the run, in microseconds: the median and the
  /// 99th percentile of one request-loop iteration in 64 (a fixed
  /// pseudo-random sample that ignores the iteration's position in the
  /// session, feed and scan cycles), so the clock reads stay off the
  /// throughput figures.
  double RequestP50Us = 0.0;
  double RequestP99Us = 0.0;
  /// Final variants of the session set and event feed contexts.
  std::string SessionSetVariant;
  std::string EventListVariant;
  /// Final smoothed thread estimate of the cache context.
  double ContendedThreads = 0.0;
  EngineStats Stats;         ///< Engine-stats interval over the run.
};

/// Runs the session-server scenario under \p Config. Contexts are
/// created through Switch::makeContext (global model and engine);
/// install a measured model with Switch::setModel first when one is
/// available.
ServerRunResult runSessionServerSim(const ServerRunConfig &Config);

} // namespace cswitch

#endif // CSWITCH_APPS_SESSIONSERVER_H
