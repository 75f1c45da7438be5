//===- OpenMetricsTest.cpp - OpenMetrics rendering unit tests -------------===//
//
// Part of the CollectionSwitch C++ reproduction (CGO'18, Costa & Andrzejak).
//
//===----------------------------------------------------------------------===//
//
// Shape of the /metrics exposition: family headers, `_total` counter
// samples, quantile-labelled summaries, label-value escaping, and the
// `# EOF` terminator — pinned here so the endpoint stays scrapeable by
// real OpenMetrics parsers.
//
//===----------------------------------------------------------------------===//

#include "obs/OpenMetrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

using namespace cswitch;
using namespace cswitch::obs;

namespace {

TelemetrySnapshot sampleSnapshot() {
  TelemetrySnapshot S;
  ContextSnapshot C;
  C.Name = "bench\"quoted\"";
  C.Abstraction = "list";
  C.Variant = "ArrayList";
  C.Stats.InstancesCreated = 100;
  C.Stats.InstancesMonitored = 64;
  C.Stats.ProfilesPublished = 60;
  C.Stats.Evaluations = 3;
  C.Stats.Switches = 1;
  C.FootprintBytes = 2048;
  S.Contexts.push_back(C);
  S.Engine += C.Stats;
  S.Events.Recorded = 42;
  S.Store.WarmStarts = 2;
  S.Latency.Record.Count = 640;
  S.Latency.Record.SumNanos = 64000;
  S.Latency.Record.P50 = 80.0;
  S.Latency.Record.P99 = 250.0;
  S.Latency.Record.P999 = 400.0;
  return S;
}

std::vector<SiteHistogramSnapshot> sampleSites() {
  SiteHistogramSnapshot Site;
  Site.Name = "bench\"quoted\"";
  Site.Record.Count = 640;
  Site.Record.SumNanos = 64000;
  Site.Record.MaxNanos = 400;
  Site.Record.Buckets[10] = 640;
  return {Site};
}

TEST(OpenMetrics, EscapeHandlesLabelSpecials) {
  EXPECT_EQ(openMetricsEscape("plain"), "plain");
  EXPECT_EQ(openMetricsEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(openMetricsEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(openMetricsEscape("a\nb"), "a\\nb");
}

TEST(OpenMetrics, CountersCarryTypeHeaderAndTotalSuffix) {
  std::string Text = renderOpenMetrics(sampleSnapshot(), sampleSites());
  EXPECT_NE(Text.find("# TYPE cswitch_engine_instances_created counter\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# HELP cswitch_engine_instances_created "),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_engine_instances_created_total 100\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_events_recorded_total 42\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_store_warm_starts_total 2\n"),
            std::string::npos);
  // The context gauge has no _total suffix.
  EXPECT_NE(Text.find("# TYPE cswitch_contexts gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("cswitch_contexts 1\n"), std::string::npos);
}

TEST(OpenMetrics, PerSiteSeriesEscapeTheSiteLabel) {
  std::string Text = renderOpenMetrics(sampleSnapshot(), sampleSites());
  EXPECT_NE(
      Text.find(
          "cswitch_instances_created_total{site=\"bench\\\"quoted\\\"\"} 100\n"),
      std::string::npos);
  EXPECT_NE(Text.find("cswitch_context_footprint_bytes{site=\"bench\\\""
                      "quoted\\\"\"} 2048\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_context_variant_info{site=\"bench\\\""
                      "quoted\\\"\",abstraction=\"list\",variant=\""
                      "ArrayList\"} 1\n"),
            std::string::npos);
}

TEST(OpenMetrics, LargestDroppedCountRendersInFull) {
  TelemetrySnapshot S = sampleSnapshot();
  S.Events.NodeDropped = {UINT64_MAX, 7};
  std::string Text = renderOpenMetrics(S, {});
  EXPECT_NE(Text.find("cswitch_node_events_dropped_total{node=\"0\"} "
                      "18446744073709551615\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_node_events_dropped_total{node=\"1\"} 7\n"),
            std::string::npos);
}

TEST(OpenMetrics, SummariesExposeQuantilesCountAndSum) {
  std::string Text = renderOpenMetrics(sampleSnapshot(), sampleSites());
  EXPECT_NE(Text.find("# TYPE cswitch_record_latency_nanos summary\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_record_latency_nanos{quantile=\"0.5\"} 80\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_record_latency_nanos{quantile=\"0.99\"} 250\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_record_latency_nanos{quantile=\"0.999\"} "
                      "400\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_record_latency_nanos_count 640\n"),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_record_latency_nanos_sum 64000\n"),
            std::string::npos);
  // Per-site summaries: the site label composes with the quantile label.
  EXPECT_NE(Text.find("cswitch_site_record_latency_nanos{site=\"bench\\\""
                      "quoted\\\"\",quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(Text.find("cswitch_site_record_latency_nanos_count{site=\""
                      "bench\\\"quoted\\\"\"} 640\n"),
            std::string::npos);
}

TEST(OpenMetrics, DocumentIsTerminatedByEof) {
  std::string Text = renderOpenMetrics(sampleSnapshot(), sampleSites());
  ASSERT_GE(Text.size(), 6u);
  EXPECT_EQ(Text.substr(Text.size() - 6), "# EOF\n");
  // Exactly one EOF marker, at the very end.
  EXPECT_EQ(Text.find("# EOF\n"), Text.size() - 6);
}

TEST(OpenMetrics, EveryLineIsWellFormed) {
  // Cheap structural lint: every non-comment line is `name{labels} value`
  // or `name value`, with no empty lines before the terminator.
  std::string Text = renderOpenMetrics(sampleSnapshot(), sampleSites());
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    ASSERT_FALSE(Line.empty());
    if (Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    ASSERT_LT(Space + 1, Line.size()) << Line;
    // The value parses as a number.
    char *End = nullptr;
    std::string Value = Line.substr(Space + 1);
    std::strtod(Value.c_str(), &End);
    EXPECT_EQ(*End, '\0') << Line;
  }
}

} // namespace
