//===- SessionServerWorkload.cpp - session-server -------------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// A closed-loop driver over the public API with SessionServerSim's
// traffic mix: Threads workers, each sending its next request as soon as
// the previous one returns, share one tenant-cache map, one session set
// and one event feed list per epoch. The three contexts run under
// Concurrency::Auto, so the engine discovers the mutex -> sharded switch
// from the contention sketch.
//
// A request is one loop iteration: a cache lookup (90% on even tenants,
// 60% on odd ones) or put with Zipf(0.99) keys; every 16th request also
// adds or removes a session, every 64th appends to the feed and every
// 1024th scans the feed. The keys are generated in set-up from the seed.
//
// An epoch is RequestsPerEpoch requests per worker followed by the
// epoch boundary: retire the three instances (publishing their
// profiles), evaluateAll(), and create the next generation.
//
// Correctness: each worker owns a disjoint session-id range and tracks
// it, so every add/remove result is predictable; cached values encode
// their key; after each epoch a single-threaded read-back of the set
// and the feed must match the workers' tallies, and the request count
// must be exact.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Switch.h"
#include "support/MemoryTracker.h"
#include "support/Random.h"

#include <bitset>
#include <thread>

using namespace cswitch;
using namespace repobench;

namespace {

constexpr size_t Threads = 4;
constexpr size_t Tenants = 4;
constexpr size_t KeysPerTenant = 1024;
constexpr double ZipfSkew = 0.99;
/// Session ids per worker; worker W owns [W * SessionStride,
/// W * SessionStride + SessionsPerWorker).
constexpr size_t SessionsPerWorker = 512;
constexpr int64_t SessionStride = 1024;
/// ~40 ms of traffic per epoch on a 4-vCPU x86 VM.
constexpr size_t RequestsPerEpoch = 50000;
/// Pre-generated requests per worker, replayed cyclically.
constexpr size_t ScriptLength = 1 << 16;
/// Unmeasured epochs first: Auto starts on the mutex map and switches
/// within the first few boundaries.
constexpr size_t WarmupEpochs = 6;
/// Cached values are (key << ValueShift) | sequence, so a hit can be
/// checked against its key.
constexpr unsigned ValueShift = 20;

struct Request {
  int64_t Key = 0;
  int64_t Session = 0;
  bool Read = false;
  bool SessionAdd = false;
};

/// The session-server mix: even tenants read-heavy, odd write-heavy.
double tenantReadFraction(size_t Tenant) {
  return Tenant % 2 == 0 ? 0.9 : 0.6;
}

std::vector<Request> makeScript(uint64_t Seed, size_t Worker,
                                const ZipfDistribution &Zipf) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + Worker * 2654435761ULL + 1);
  std::vector<Request> Script(ScriptLength);
  for (size_t I = 0; I != ScriptLength; ++I) {
    Request &Q = Script[I];
    size_t Tenant = (I + Worker) % Tenants;
    Q.Key = static_cast<int64_t>(Tenant * KeysPerTenant + Zipf.next(Rng));
    Q.Read = Rng.nextBool(tenantReadFraction(Tenant));
    Q.Session = static_cast<int64_t>(Worker) * SessionStride +
                static_cast<int64_t>(Rng.nextBelow(SessionsPerWorker));
    Q.SessionAdd = Rng.nextBool(0.5);
  }
  return Script;
}

using CacheMap = Map<int64_t, int64_t>;
using SessionSet = Set<int64_t>;
using EventList = List<int64_t>;

/// What set-up produces: the three contexts and the request scripts.
struct Server {
  ContextHandle<MapContext<int64_t, int64_t>> CacheCtx;
  ContextHandle<SetContext<int64_t>> SessionCtx;
  ContextHandle<ListContext<int64_t>> EventCtx;
  std::vector<std::vector<Request>> Scripts;
};

/// One worker's state: the script cursor survives across epochs; the
/// latency histogram and the tallies are per epoch, reset by the main
/// thread. Cache-line aligned, so workers' counters never share a line.
struct alignas(64) Worker {
  size_t Index = 0;
  size_t Cursor = 0;
  RequestHistogram Latency;
  uint64_t Requests = 0;
  uint64_t Lookups = 0;
  uint64_t Puts = 0;
  uint64_t Appends = 0;
  uint64_t Bad = 0; ///< Results that contradict what the worker knows.
  int64_t LiveDelta = 0;
  std::bitset<SessionsPerWorker> Sessions;

  void resetEpoch() {
    Requests = Lookups = Puts = Appends = Bad = 0;
    LiveDelta = 0;
    Sessions.reset();
    Latency.clear();
  }
};

void runWorker(Worker &W, const std::vector<Request> &Script,
               CacheMap &Cache, SessionSet &Sessions, EventList &Events) {
  int64_t LiveBefore = MemoryTracker::liveBytes();
  int64_t FeedTag = static_cast<int64_t>(W.Index) << 40;
  int64_t Last = nowNs();
  for (size_t I = 0; I != RequestsPerEpoch; ++I) {
    const Request &Q = Script[W.Cursor];
    W.Cursor = (W.Cursor + 1) % ScriptLength;
    if (Q.Read) {
      int64_t Value = 0;
      ++W.Lookups;
      if (Cache.lookup(Q.Key, Value))
        W.Bad += (Value >> ValueShift) != Q.Key;
    } else {
      ++W.Puts;
      Cache.put(Q.Key, (Q.Key << ValueShift) |
                           static_cast<int64_t>(I & ((1 << ValueShift) - 1)));
    }
    if (I % 16 == 0) {
      size_t Bit = static_cast<size_t>(Q.Session % SessionStride);
      bool Present = W.Sessions[Bit];
      if (Q.SessionAdd) {
        W.Bad += Sessions.add(Q.Session) == Present;
        W.Sessions[Bit] = true;
      } else {
        W.Bad += Sessions.remove(Q.Session) != Present;
        W.Sessions[Bit] = false;
      }
    }
    if (I % 64 == 0)
      Events.add(FeedTag | static_cast<int64_t>(W.Appends++));
    if (I % 1024 == 0) {
      uint64_t Seen = 0;
      Events.forEach([&Seen](const int64_t &) { ++Seen; });
      // The worker's own appends happened before its scan.
      W.Bad += Seen < W.Appends;
    }
    ++W.Requests;
    int64_t Now = nowNs();
    W.Latency.record(static_cast<uint64_t>(Now - Last));
    Last = Now;
  }
  W.LiveDelta = MemoryTracker::liveBytes() - LiveBefore;
}

/// Single-threaded read-back after the workers joined: the set and the
/// feed must hold exactly what the workers' tallies say.
bool readBackMatches(const std::vector<Worker> &Workers,
                     const SessionSet &Sessions, const EventList &Events) {
  size_t Expected = 0;
  for (const Worker &W : Workers) {
    Expected += W.Sessions.count();
    for (size_t Bit = 0; Bit != SessionsPerWorker; ++Bit) {
      int64_t Id = static_cast<int64_t>(W.Index) * SessionStride +
                   static_cast<int64_t>(Bit);
      if (Sessions.contains(Id) != W.Sessions[Bit])
        return false;
    }
  }
  if (Sessions.size() != Expected)
    return false;

  // Each worker's appends appear once, in its own order.
  std::vector<uint64_t> Next(Workers.size(), 0);
  bool Ok = true;
  Events.forEach([&](const int64_t &Value) {
    size_t Owner = static_cast<size_t>(Value >> 40);
    uint64_t Seq = static_cast<uint64_t>(Value & ((int64_t(1) << 40) - 1));
    if (Owner >= Next.size() || Seq != Next[Owner]) {
      Ok = false;
      return;
    }
    ++Next[Owner];
  });
  for (const Worker &W : Workers)
    Ok = Ok && Next[W.Index] == W.Appends;
  return Ok;
}

/// One set-up: the model, the configuration, the three contexts and the
/// request scripts. Exits when the model does not load.
Server setUp(uint64_t Seed) {
  std::shared_ptr<const PerformanceModel> Model = loadBenchModel();
  if (!Model)
    std::exit(2);
  Switch::setModel(Model);
  ContextOptions Opts = ContextOptions{}
                            .windowSize(4)
                            .finishedRatio(0.5)
                            .logEvents(false)
                            .concurrency(Concurrency::Auto);
  SwitchConfig Config;
  Config.Context = Opts;
  Switch::configure(Config);
  Server S;
  S.CacheCtx = Switch::makeContext<CacheMap>(
      "server:tenant-cache", MapVariant::ChainedHashMap,
      SelectionRule::timeRule(), Opts);
  S.SessionCtx = Switch::makeContext<SessionSet>(
      "server:sessions", SetVariant::ChainedHashSet,
      SelectionRule::timeRule(), Opts);
  S.EventCtx = Switch::makeContext<EventList>(
      "server:events", ListVariant::ArrayList, SelectionRule::timeRule(),
      Opts);
  ZipfDistribution Zipf(KeysPerTenant, ZipfSkew);
  for (size_t W = 0; W != Threads; ++W)
    S.Scripts.push_back(makeScript(Seed, W, Zipf));
  return S;
}

} // namespace

void repobench::runSessionServerWorkload(Run &R) {
  SetupTimer Setups(R.Opts.Seconds);
  Server S = Setups.time([&] { return setUp(R.Opts.Seed); });

  std::vector<Worker> Workers(Threads);
  for (size_t W = 0; W != Threads; ++W)
    Workers[W].Index = W;

  struct EpochResult {
    double Seconds = 0.0;
    double P50Us = 0.0;
    double P99Us = 0.0;
    uint64_t Requests = 0;
  };
  std::vector<EpochResult> Epochs;
  std::vector<double> EpochS, TracedEpochS, UntracedEpochS, LiveKB;
  RequestHistogram Latency;
  // Counts cover the warm-up too: the mutex -> sharded switch is part of
  // the workload's selection work.
  EngineStats StatsBefore = Switch::stats();
  Clock::time_point Start;

  // At least eight measured epochs, so the quiet quarter holds two and
  // the traced run has traced and untraced ones.
  for (size_t Epoch = 0;; ++Epoch) {
    bool Measure = Epoch >= WarmupEpochs;
    if (Epoch == WarmupEpochs)
      Start = Clock::now();
    if (Measure && Epoch >= WarmupEpochs + 8 &&
        secondsSince(Start) >= R.Opts.Seconds)
      break;
    // A repeated set-up registers three more contexts for a moment; it
    // is done before the epoch's evaluateAll() can see them.
    if (Setups.due())
      Setups.time([&] { return setUp(R.Opts.Seed); });
    bool Traced = R.Opts.Trace && Measure && Epoch % 2 == 0;
    R.Spans.setEnabled(Traced);
    for (Worker &W : Workers)
      W.resetEpoch();

    int64_t EpochStart = nowNs();
    int64_t EpochSpan = R.Spans.begin("epoch");
    int64_t MainLive = MemoryTracker::liveBytes();
    int64_t Span = R.Spans.begin("create");
    CacheMap Cache = S.CacheCtx->createMap();
    SessionSet Sessions = S.SessionCtx->createSet();
    EventList Events = S.EventCtx->createList();
    R.Spans.end(Span);

    Span = R.Spans.begin("workers");
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (size_t W = 0; W != Threads; ++W)
      Pool.emplace_back([&, W] {
        runWorker(Workers[W], S.Scripts[W], Cache, Sessions, Events);
      });
    for (std::thread &T : Pool)
      T.join();
    R.Spans.end(Span);
    int64_t Live = MemoryTracker::liveBytes() - MainLive;

    // The read-back is a check, not traffic: its time is excluded.
    int64_t ReadBackStart = nowNs();
    Span = R.Spans.begin("readback");
    uint64_t Requests = 0, Bad = 0;
    Latency.clear();
    for (const Worker &W : Workers) {
      Latency.merge(W.Latency);
      Requests += W.Requests;
      Bad += W.Bad;
      Live += W.LiveDelta;
      R.Checks.check(W.Lookups + W.Puts == RequestsPerEpoch,
                     "worker request tally is not exact");
    }
    R.Checks.check(Requests == Threads * RequestsPerEpoch,
                   "epoch request count is not exact");
    R.Checks.check(Bad == 0, "a request result contradicts the workers' "
                             "own state");
    R.Checks.check(readBackMatches(Workers, Sessions, Events),
                   "set/feed read-back differs from the workers' tallies");
    R.Spans.end(Span);
    int64_t ReadBackNs = nowNs() - ReadBackStart;

    Span = R.Spans.begin("retire");
    { // Retiring publishes the generation's shared profiles.
      CacheMap RetireCache = std::move(Cache);
      SessionSet RetireSessions = std::move(Sessions);
      EventList RetireEvents = std::move(Events);
    }
    R.Spans.end(Span);
    Span = R.Spans.begin("evaluate_all");
    SwitchEngine::global().evaluateAll();
    R.Spans.end(Span);
    R.Spans.end(EpochSpan);

    if (!Measure)
      continue;
    double Seconds =
        static_cast<double>(nowNs() - EpochStart - ReadBackNs) / 1e9;
    Epochs.push_back({Seconds, Latency.quantile(0.50) / 1e3,
                      Latency.quantile(0.99) / 1e3, Requests});
    EpochS.push_back(Seconds);
    (Traced ? TracedEpochS : UntracedEpochS).push_back(Seconds);
    LiveKB.push_back(static_cast<double>(Live) / 1e3);
  }
  R.Spans.setEnabled(false);
  EngineStats Stats = Switch::stats() - StatsBefore;
  reportSetup(R, Setups.times());

  // Timings over the quiet quarter of the epochs (see quietQuarter);
  // each epoch's latency percentiles come from its ~200k requests.
  std::vector<double> QuietS, P50Us, P99Us;
  uint64_t QuietRequests = 0;
  double QuietTotal = 0.0;
  for (size_t I : quietQuarter(EpochS)) {
    QuietS.push_back(Epochs[I].Seconds);
    P50Us.push_back(Epochs[I].P50Us);
    P99Us.push_back(Epochs[I].P99Us);
    QuietRequests += Epochs[I].Requests;
    QuietTotal += Epochs[I].Seconds;
  }
  Summary Quiet = summarize(QuietS);
  R.EndToEnd.set("run_s", Quiet.Median, "s");
  R.noteSummary("run_s (quiet epochs)", Quiet, "s");
  R.noteSummary("all epochs", summarize(EpochS), "s");
  R.EndToEnd.set("ops_per_s", static_cast<double>(QuietRequests) / QuietTotal,
                 "req/s");
  R.EndToEnd.set("req_p50_us", summarize(P50Us).Median, "us");
  R.EndToEnd.set("req_p99_us", summarize(P99Us).Median, "us");
  R.note("requests", std::to_string(QuietRequests) +
                         " loop iterations in " +
                         std::to_string(QuietS.size()) + " quiet epochs");
  R.EndToEnd.set("peak_live_kb", summarize(LiveKB).Median, "KB");
  R.note("cache_variant",
         mapVariantName(static_cast<MapVariant>(
             S.CacheCtx->currentVariantIndex())));

  // The contexts are alive, so a Switch::stats() interval covers them.
  reportEngineCounts(R, Stats);
  R.Layers.set("core.create_us",
               summarize(R.Spans.durations("create")).Median / 1e3, "us");
  R.Layers.set("core.retire_us",
               summarize(R.Spans.durations("retire")).Median / 1e3, "us");
  R.Layers.set("core.evaluate_all_ms",
               summarize(R.Spans.durations("evaluate_all")).Median / 1e6,
               "ms");
  for (const char *App : {"avrora", "bloat", "fop", "h2", "lusearch"})
    R.Layers.set(std::string("apps.") + App + "_ms", 0.0, "ms");

  if (R.Opts.Trace)
    reportTraceOverhead(R, TracedEpochS, UntracedEpochS);
}
