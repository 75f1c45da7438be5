//===- OpenMetrics.cpp - OpenMetrics text rendering ----------------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//

#include "obs/OpenMetrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

/// Appends `Name{site="..."} Value\n` (or without the label block when
/// \p Site is empty).
void sampleU64(std::string &Out, const char *Name, std::string_view Site,
               uint64_t Value) {
  Out += Name;
  if (!Site.empty()) {
    Out += "{site=\"";
    Out += openMetricsEscape(Site);
    Out += "\"}";
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", Value);
  Out += Buf;
}

/// Shortest round-trippable decimal for a double sample value.
void appendDouble(std::string &Out, double Value) {
  char Buf[64];
  // Latencies are non-negative and usually whole nanoseconds; plain
  // decimals beat %g's exponential form for scrape readability.
  if (Value >= 0.0 && Value < 9.0e15 && Value == std::floor(Value)) {
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
    Out += Buf;
    return;
  }
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  // Trim to the shortest representation that still parses back exactly.
  for (int Precision = 1; Precision < 17; ++Precision) {
    char Short[64];
    std::snprintf(Short, sizeof(Short), "%.*g", Precision, Value);
    double Parsed = 0.0;
    if (std::sscanf(Short, "%lf", &Parsed) == 1 && Parsed == Value) {
      Out += Short;
      return;
    }
  }
  Out += Buf;
}

void familyHeader(std::string &Out, const char *Name, const char *Type,
                  const char *Help) {
  Out += "# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += "\n# HELP ";
  Out += Name;
  Out += ' ';
  Out += Help;
  Out += '\n';
}

/// Emits one summary family: quantile samples plus _count/_sum, with an
/// optional site label. Families with zero observations still emit
/// _count/_sum so scrapes see a stable series set.
void summaryFamily(std::string &Out, const char *Name, const char *Help,
                   const std::vector<std::pair<std::string_view,
                                               const LatencyStats *>> &Rows) {
  familyHeader(Out, Name, "summary", Help);
  static constexpr struct {
    const char *Label;
    double LatencyStats::*Field;
  } Quantiles[] = {{"0.5", &LatencyStats::P50},
                   {"0.9", &LatencyStats::P90},
                   {"0.99", &LatencyStats::P99},
                   {"0.999", &LatencyStats::P999}};
  for (const auto &[Site, Stats] : Rows) {
    std::string Labels;
    if (!Site.empty()) {
      Labels = "site=\"";
      Labels += openMetricsEscape(Site);
      Labels += '"';
    }
    for (const auto &Q : Quantiles) {
      Out += Name;
      Out += '{';
      if (!Labels.empty()) {
        Out += Labels;
        Out += ',';
      }
      Out += "quantile=\"";
      Out += Q.Label;
      Out += "\"} ";
      appendDouble(Out, Stats->*(Q.Field));
      Out += '\n';
    }
    Out += Name;
    Out += "_count";
    if (!Labels.empty()) {
      Out += '{';
      Out += Labels;
      Out += '}';
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", Stats->Count);
    Out += Buf;
    Out += Name;
    Out += "_sum";
    if (!Labels.empty()) {
      Out += '{';
      Out += Labels;
      Out += '}';
    }
    std::snprintf(Buf, sizeof(Buf), " %" PRIu64 "\n", Stats->SumNanos);
    Out += Buf;
  }
}

} // namespace

std::string cswitch::obs::openMetricsEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string
cswitch::obs::renderOpenMetrics(const TelemetrySnapshot &Snapshot,
                                const std::vector<SiteHistogramSnapshot> &Sites) {
  std::string Out;
  Out.reserve(4096);

  // Engine-wide gauges and counters.
  familyHeader(Out, "cswitch_contexts", "gauge",
               "Allocation contexts currently registered with the engine.");
  sampleU64(Out, "cswitch_contexts", {}, Snapshot.Engine.Contexts);

  struct EngineCounter {
    const char *Name;
    const char *Help;
    uint64_t Value;
  };
  const EngineCounter EngineCounters[] = {
      {"cswitch_engine_instances_created",
       "Collections created through adaptive contexts.",
       Snapshot.Engine.InstancesCreated},
      {"cswitch_engine_instances_monitored",
       "Instances that claimed a monitoring slot.",
       Snapshot.Engine.InstancesMonitored},
      {"cswitch_engine_profiles_published",
       "Usage profiles published into evaluation windows.",
       Snapshot.Engine.ProfilesPublished},
      {"cswitch_engine_profiles_discarded",
       "Usage profiles discarded by closed windows.",
       Snapshot.Engine.ProfilesDiscarded},
      {"cswitch_engine_evaluations", "Window evaluation rounds executed.",
       Snapshot.Engine.Evaluations},
      {"cswitch_engine_switches", "Variant transitions executed.",
       Snapshot.Engine.Switches},
      {"cswitch_events_recorded", "Decision events recorded (incl. dropped).",
       Snapshot.Events.Recorded},
      {"cswitch_events_dropped", "Decision events lost to ring wrap-around.",
       Snapshot.Events.Dropped},
      {"cswitch_recorder_ops_recorded",
       "Operations captured into trace buffers.",
       Snapshot.Recorder.OpsRecorded},
      {"cswitch_recorder_ops_dropped",
       "Operations lost to full trace buffers.", Snapshot.Recorder.OpsDropped},
      {"cswitch_store_loads", "Selection-store documents loaded.",
       Snapshot.Store.Loads},
      {"cswitch_store_load_failures",
       "Corrupt or mismatched store documents (cold start).",
       Snapshot.Store.LoadFailures},
      {"cswitch_store_warm_starts",
       "Contexts seeded from a stored cross-run decision.",
       Snapshot.Store.WarmStarts},
      {"cswitch_store_persists", "Successful selection-store writes.",
       Snapshot.Store.Persists},
      {"cswitch_store_persist_failures",
       "Failed selection-store lock or write attempts.",
       Snapshot.Store.PersistFailures},
      {"cswitch_fleet_pulls", "Store documents pulled from fleet peers.",
       Snapshot.Fleet.Pulls},
      {"cswitch_fleet_pull_failures",
       "Store pulls that failed after retries.", Snapshot.Fleet.PullFailures},
      {"cswitch_fleet_pushes", "Store documents pushed to fleet peers.",
       Snapshot.Fleet.Pushes},
      {"cswitch_fleet_push_failures",
       "Store pushes that failed after retries.", Snapshot.Fleet.PushFailures},
      {"cswitch_fleet_retries", "Fleet HTTP request retries.",
       Snapshot.Fleet.Retries},
      {"cswitch_fleet_store_gets",
       "Store documents served to peers over /store.",
       Snapshot.Fleet.StoreGets},
      {"cswitch_fleet_merges_applied",
       "Remote store documents merged into the local store.",
       Snapshot.Fleet.MergesApplied},
      {"cswitch_fleet_rejected_oversize",
       "Store pushes rejected for exceeding the size limit.",
       Snapshot.Fleet.RejectedOversize},
      {"cswitch_fleet_rejected_malformed",
       "Store pushes the total decoder refused.",
       Snapshot.Fleet.RejectedMalformed},
      {"cswitch_fleet_rejected_incompatible",
       "Fleet artifacts rejected for schema/fingerprint mismatch.",
       Snapshot.Fleet.RejectedIncompatible},
      {"cswitch_fleet_recalibrations", "On-device model fit runs completed.",
       Snapshot.Fleet.Recalibrations},
      {"cswitch_fleet_promotions",
       "Recalibrated models promoted past the hold-out gate.",
       Snapshot.Fleet.Promotions},
      {"cswitch_fleet_promotions_rejected",
       "Recalibrated models the hold-out gate refused.",
       Snapshot.Fleet.PromotionsRejected},
      {"cswitch_tuning_loads", "Tuned-configuration artifacts applied.",
       Snapshot.Tuning.Loads},
      {"cswitch_tuning_load_failures",
       "Tuned-configuration artifacts the loader rejected.",
       Snapshot.Tuning.LoadFailures},
      {"cswitch_model_installs",
       "Performance models installed (builtin, measured, or artifact).",
       Snapshot.Model.Installs},
  };
  for (const auto &C : EngineCounters) {
    familyHeader(Out, C.Name, "counter", C.Help);
    Out += C.Name;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "_total %" PRIu64 "\n", C.Value);
    Out += Buf;
  }

  // Topology of the striped monitoring structures (DESIGN.md §10), so
  // dashboards can relate per-node series to the machine layout.
  familyHeader(Out, "cswitch_topology_nodes", "gauge",
               "NUMA nodes the monitoring structures are striped over.");
  sampleU64(Out, "cswitch_topology_nodes", {}, Snapshot.Topology.Nodes);
  familyHeader(Out, "cswitch_topology_cpus", "gauge",
               "CPUs seen by topology detection.");
  sampleU64(Out, "cswitch_topology_cpus", {}, Snapshot.Topology.Cpus);

  // Provenance of the applied tuned configuration, Prometheus
  // info-metric style: the labels carry the identity, the value is 1.
  // Emitted only once an artifact has been applied.
  if (Snapshot.Tuning.Loads > 0) {
    familyHeader(Out, "cswitch_tuning_info", "gauge",
                 "Provenance of the applied cswitch-tuning-v1 artifact.");
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "\",seed=\"%" PRIu64 "\",generations=\"%" PRIu64
                  "\",population=\"%" PRIu64 "\"} 1\n",
                  Snapshot.Tuning.Seed, Snapshot.Tuning.Generations,
                  Snapshot.Tuning.Population);
    Out += "cswitch_tuning_info{source=\"";
    Out += openMetricsEscape(Snapshot.Tuning.Source);
    Out += "\",fingerprint=\"";
    Out += openMetricsEscape(Snapshot.Tuning.Fingerprint);
    Out += "\",corpus_digest=\"";
    Out += openMetricsEscape(Snapshot.Tuning.CorpusDigest);
    Out += Buf;
  }

  // Provenance of the cost model driving selection (DESIGN.md §14):
  // which artifact the decisions trace back to. Emitted once any model
  // has been installed — including the shipped default ("<builtin>").
  if (Snapshot.Model.Installs > 0) {
    familyHeader(Out, "cswitch_model_info", "gauge",
                 "Provenance of the installed performance model.");
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "\",fit_timestamp=\"%" PRIu64
                  "\",holdout_residual=\"%.17g\"} 1\n",
                  Snapshot.Model.FitTimestamp,
                  Snapshot.Model.HoldoutResidual);
    Out += "cswitch_model_info{source=\"";
    Out += openMetricsEscape(Snapshot.Model.Source);
    Out += "\",fingerprint=\"";
    Out += openMetricsEscape(Snapshot.Model.Fingerprint);
    Out += Buf;
  }

  // Identity of the attached selection store, for the same reason:
  // warm-start decisions in the explain ledger cite it.
  if (!Snapshot.Store.Path.empty()) {
    familyHeader(Out, "cswitch_store_info", "gauge",
                 "Identity of the attached selection store.");
    Out += "cswitch_store_info{path=\"";
    Out += openMetricsEscape(Snapshot.Store.Path);
    Out += "\"} 1\n";
  }

  familyHeader(Out, "cswitch_node_events_dropped", "counter",
               "Decision events lost to ring wrap-around, per node ring.");
  for (size_t Node = 0; Node != Snapshot.Events.NodeDropped.size(); ++Node) {
    Out += "cswitch_node_events_dropped_total{node=\"";
    Out += std::to_string(Node);
    Out += "\"} ";
    Out += std::to_string(Snapshot.Events.NodeDropped[Node]);
    Out += '\n';
  }

  // Per-context monitoring counters, labelled by site.
  struct SiteCounter {
    const char *Name;
    const char *Help;
    uint64_t ContextStats::*Field;
  };
  const SiteCounter SiteCounters[] = {
      {"cswitch_instances_created",
       "Collections created at this allocation site.",
       &ContextStats::InstancesCreated},
      {"cswitch_instances_monitored",
       "Instances of this site that claimed a monitoring slot.",
       &ContextStats::InstancesMonitored},
      {"cswitch_profiles_published",
       "Usage profiles this site published into windows.",
       &ContextStats::ProfilesPublished},
      {"cswitch_evaluations", "Evaluation rounds executed for this site.",
       &ContextStats::Evaluations},
      {"cswitch_switches", "Variant transitions executed at this site.",
       &ContextStats::Switches},
  };
  for (const auto &C : SiteCounters) {
    familyHeader(Out, C.Name, "counter", C.Help);
    for (const auto &Ctx : Snapshot.Contexts) {
      Out += C.Name;
      Out += "_total{site=\"";
      Out += openMetricsEscape(Ctx.Name);
      Out += "\"} ";
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%" PRIu64 "\n", Ctx.Stats.*(C.Field));
      Out += Buf;
    }
  }

  familyHeader(Out, "cswitch_context_footprint_bytes", "gauge",
               "Approximate memory footprint of this site's context.");
  for (const auto &Ctx : Snapshot.Contexts)
    sampleU64(Out, "cswitch_context_footprint_bytes", Ctx.Name,
              Ctx.FootprintBytes);

  familyHeader(Out, "cswitch_context_contended_threads", "gauge",
               "Smoothed estimate of distinct threads operating on this "
               "site's collections (0 = sequential context).");
  for (const auto &Ctx : Snapshot.Contexts) {
    Out += "cswitch_context_contended_threads{site=\"";
    Out += openMetricsEscape(Ctx.Name);
    Out += "\"} ";
    appendDouble(Out, Ctx.ContendedThreads);
    Out += '\n';
  }

  familyHeader(Out, "cswitch_context_variant_info", "gauge",
               "Current variant of this site (value is always 1).");
  for (const auto &Ctx : Snapshot.Contexts) {
    Out += "cswitch_context_variant_info{site=\"";
    Out += openMetricsEscape(Ctx.Name);
    Out += "\",abstraction=\"";
    Out += openMetricsEscape(Ctx.Abstraction);
    Out += "\",variant=\"";
    Out += openMetricsEscape(Ctx.Variant);
    Out += "\"} 1\n";
  }

  // Engine-wide latency summaries.
  summaryFamily(Out, "cswitch_record_latency_nanos",
                "Monitoring fast-path latency, all sites merged (sampled "
                "1-in-64).",
                {{std::string_view(), &Snapshot.Latency.Record}});
  summaryFamily(Out, "cswitch_evaluate_latency_nanos",
                "Window-evaluation latency, all sites merged.",
                {{std::string_view(), &Snapshot.Latency.Evaluate}});
  summaryFamily(Out, "cswitch_switch_latency_nanos",
                "Variant-transition latency, all sites merged.",
                {{std::string_view(), &Snapshot.Latency.Switch}});
  summaryFamily(Out, "cswitch_persist_latency_nanos",
                "Selection-store persist latency.",
                {{std::string_view(), &Snapshot.Latency.Persist}});

  // Per-site latency summaries from the profiling sweep. Distill each
  // histogram once, keep the stats alive for the row span.
  std::vector<LatencyStats> SiteStats;
  SiteStats.reserve(Sites.size() * 3);
  std::vector<std::pair<std::string_view, const LatencyStats *>> RecordRows,
      EvaluateRows, SwitchRows;
  for (const auto &Site : Sites) {
    SiteStats.push_back(Site.Record.stats());
    RecordRows.emplace_back(Site.Name, &SiteStats.back());
    SiteStats.push_back(Site.Evaluate.stats());
    EvaluateRows.emplace_back(Site.Name, &SiteStats.back());
    SiteStats.push_back(Site.Switch.stats());
    SwitchRows.emplace_back(Site.Name, &SiteStats.back());
  }
  summaryFamily(Out, "cswitch_site_record_latency_nanos",
                "Monitoring fast-path latency per site (sampled 1-in-64).",
                RecordRows);
  summaryFamily(Out, "cswitch_site_evaluate_latency_nanos",
                "Window-evaluation latency per site.", EvaluateRows);
  summaryFamily(Out, "cswitch_site_switch_latency_nanos",
                "Variant-transition latency per site.", SwitchRows);

  Out += "# EOF\n";
  return Out;
}

std::string cswitch::obs::renderOpenMetrics(const TelemetrySnapshot &Snapshot) {
  return renderOpenMetrics(Snapshot,
                           ProfilingRegistry::global().snapshotSites());
}
