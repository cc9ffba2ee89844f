#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/exposition.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/execution_context.hpp"

namespace mocos {
namespace {

// --- Counter / Gauge / Histogram primitives --------------------------------

TEST(ObsCounter, AddsAndReads) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, UnsetUntilFirstWrite) {
  obs::Gauge g;
  EXPECT_FALSE(g.has_value());
  g.set(-2.5);
  EXPECT_TRUE(g.has_value());
  EXPECT_EQ(g.value(), -2.5);
}

TEST(ObsHistogram, BucketEdgesAreLowerInclusive) {
  // bounds {1, 10}: bucket 0 is x < 1, bucket 1 is 1 <= x < 10, bucket 2
  // (overflow) is x >= 10.
  obs::Histogram h({1.0, 10.0});
  h.observe(0.5);
  h.observe(1.0);
  h.observe(9.9);
  h.observe(10.0);
  h.observe(100.0);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{1, 2, 2}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 121.4);
}

TEST(ObsHistogram, RejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, FoldWidensMinMaxAndAddsBuckets) {
  obs::Histogram a({1.0});
  a.observe(0.25);
  obs::Histogram b({1.0});
  b.observe(4.0);
  b.observe(8.0);
  a.fold(b.counts(), b.count(), b.sum(), b.min(), b.max());
  EXPECT_EQ(a.counts(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 0.25);
  EXPECT_EQ(a.max(), 8.0);
  // Folding an empty histogram must not clobber min/max with zeros.
  obs::Histogram empty({1.0});
  a.fold(empty.counts(), empty.count(), empty.sum(), empty.min(), empty.max());
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 0.25);
  EXPECT_EQ(a.max(), 8.0);
  EXPECT_THROW(a.fold({1, 2, 3}, 6, 0.0, 0.0, 0.0), std::invalid_argument);
}

TEST(ObsDecadeBounds, OneEdgePerDecade) {
  const std::vector<double> b = obs::decade_bounds(-2, 1);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1e-2);
  EXPECT_DOUBLE_EQ(b[3], 10.0);
}

// --- Registry, snapshots, merge --------------------------------------------

TEST(ObsRegistry, SnapshotIsNameSortedAndSkipsUnsetGauges) {
  obs::MetricsRegistry reg;
  reg.counter("zeta").add(2);
  reg.counter("alpha").add(1);
  reg.gauge("set_me").set(3.5);
  reg.gauge("never_set");
  reg.histogram("h", {1.0}).observe(0.5);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  EXPECT_EQ(snap.counter_value("zeta"), 2u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "set_me");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(obs::MetricsSnapshot{}.empty());
}

TEST(ObsRegistry, MergeAddsCountersOverwritesGaugesFoldsHistograms) {
  obs::MetricsRegistry a;
  a.counter("c").add(1);
  a.gauge("g").set(1.0);
  a.histogram("h", {1.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.counter("c").add(10);
  b.counter("only_b").add(7);
  b.gauge("g").set(2.0);
  b.histogram("h", {1.0}).observe(5.0);
  a.merge(b.snapshot());
  const obs::MetricsSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.counter_value("c"), 11u);
  EXPECT_EQ(snap.counter_value("only_b"), 7u);
  EXPECT_EQ(snap.gauges[0].value, 2.0);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].min, 0.5);
  EXPECT_EQ(snap.histograms[0].max, 5.0);
}

TEST(ObsRegistry, MergeRejectsMismatchedHistogramBounds) {
  obs::MetricsRegistry a;
  a.histogram("h", {1.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.histogram("h", {1.0, 2.0}).observe(0.5);
  EXPECT_THROW(a.merge(b.snapshot()), std::invalid_argument);
}

TEST(ObsSnapshot, WriteJsonIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.counter("runs").add(3);
  reg.gauge("cost").set(0.5);
  reg.histogram("steps", {1.0}).observe(0.25);
  std::ostringstream out;
  reg.snapshot().write_json(out);
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"counters\": {\n    \"runs\": 3\n  },\n"
            "  \"gauges\": {\n    \"cost\": 0.5\n  },\n"
            "  \"histograms\": {\n"
            "    \"steps\": {\"bounds\": [1], \"counts\": [1, 0], "
            "\"count\": 1, \"sum\": 0.25, \"min\": 0.25, \"max\": 0.25, "
            "\"p50\": 0.25, \"p90\": 0.25, \"p99\": 0.25}\n"
            "  }\n}\n");
  std::ostringstream empty;
  obs::MetricsSnapshot{}.write_json(empty);
  EXPECT_EQ(empty.str(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

// --- Thread-local installation and call-site helpers ------------------------

TEST(ObsScopedMetrics, InstallsAndRestoresNested) {
  EXPECT_EQ(obs::current_metrics(), nullptr);
  // All helpers are silent no-ops with no registry installed.
  obs::count("ignored");
  obs::gauge_set("ignored", 1.0);
  obs::observe("ignored", {1.0}, 0.5);

  obs::MetricsRegistry outer;
  {
    obs::ScopedMetrics install_outer(&outer);
    EXPECT_EQ(obs::current_metrics(), &outer);
    obs::count("depth", 1);
    obs::MetricsRegistry inner;
    {
      obs::ScopedMetrics install_inner(&inner);
      EXPECT_EQ(obs::current_metrics(), &inner);
      obs::count("depth", 10);
    }
    EXPECT_EQ(obs::current_metrics(), &outer);
    EXPECT_EQ(inner.snapshot().counter_value("depth"), 10u);
  }
  EXPECT_EQ(obs::current_metrics(), nullptr);
  EXPECT_EQ(outer.snapshot().counter_value("depth"), 1u);
}

// --- The determinism contract through parallel_for --------------------------

std::string metrics_json_for_jobs(std::size_t jobs) {
  obs::MetricsRegistry reg;
  {
    obs::ScopedMetrics install(&reg);
    runtime::ExecutionContext ctx(jobs);
    runtime::parallel_for(ctx, 64, [](std::size_t i) {
      obs::count("work.items");
      obs::count("work.weighted", i);
      obs::gauge_set("work.last_index", static_cast<double>(i));
      // Sum association is shard-local then index-ordered, so the float
      // accumulation order is identical for every job count.
      obs::observe("work.value", obs::decade_bounds(-2, 2),
                   0.1 * static_cast<double>(i) + 0.01);
    });
  }
  std::ostringstream out;
  reg.snapshot().write_json(out);
  return out.str();
}

TEST(ObsParallelFor, MetricValuesAreJobsInvariant) {
  const std::string serial = metrics_json_for_jobs(1);
  EXPECT_EQ(serial, metrics_json_for_jobs(2));
  EXPECT_EQ(serial, metrics_json_for_jobs(8));
  // Spot-check the merged values themselves.
  EXPECT_NE(serial.find("\"work.items\": 64"), std::string::npos);
  EXPECT_NE(serial.find("\"work.weighted\": 2016"), std::string::npos);
  EXPECT_NE(serial.find("\"work.last_index\": 63"), std::string::npos);
  EXPECT_NE(serial.find("\"runtime.parallel_for.calls\": 1"),
            std::string::npos);
  EXPECT_NE(serial.find("\"runtime.parallel_for.tasks\": 64"),
            std::string::npos);
}

// --- TraceSink --------------------------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ObsTrace, InactiveByDefaultAndHelpersAreNoOps) {
  EXPECT_EQ(obs::current_trace(), nullptr);
  EXPECT_FALSE(obs::trace_active());
  obs::trace_instant("ignored", "test");  // must not crash
  obs::ScopedSpan ignored("ignored", "test");
}

TEST(ObsTrace, EmitsOneJsonObjectPerEvent) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  sink.begin("phase", "cat", obs::TraceArgs().num("n", 2.0).str("s", "x\"y"));
  sink.instant("tick", "cat");
  sink.end("phase", "cat");
  sink.flush();
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("{\"ph\":\"B\",\"name\":\"phase\",\"cat\":\"cat\","
                          "\"ts\":"),
            0u);
  EXPECT_NE(lines[0].find("\"args\":{\"n\":2,\"s\":\"x\\\"y\"}"),
            std::string::npos);
  EXPECT_EQ(lines[1].find("{\"ph\":\"i\",\"name\":\"tick\""), 0u);
  EXPECT_EQ(lines[2].find("{\"ph\":\"E\",\"name\":\"phase\""), 0u);
  // Events carry a dense thread id (a single-threaded test is always 0).
  EXPECT_NE(lines[0].find("\"tid\":0"), std::string::npos);
}

TEST(ObsTrace, ScopedInstallAndSpanPairing) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  {
    obs::ScopedTraceInstall install(&sink);
    EXPECT_TRUE(obs::trace_active());
    EXPECT_EQ(obs::current_trace(), &sink);
    {
      obs::ScopedSpan span("work", "test");
      obs::trace_instant("inside", "test", obs::TraceArgs().num("k", 1.0));
    }
  }
  EXPECT_FALSE(obs::trace_active());
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("{\"ph\":\"B\",\"name\":\"work\""), 0u);
  EXPECT_EQ(lines[1].find("{\"ph\":\"i\",\"name\":\"inside\""), 0u);
  EXPECT_EQ(lines[2].find("{\"ph\":\"E\",\"name\":\"work\""), 0u);
}

// --- Bucket-interpolated quantiles ------------------------------------------

TEST(ObsQuantile, EdgeCases) {
  const std::vector<double> bounds{1.0, 2.0, 3.0};
  const std::vector<std::uint64_t> counts{0, 4, 0, 0};
  // Empty distribution reports 0 regardless of q.
  EXPECT_EQ(obs::histogram_quantile(bounds, {0, 0, 0, 0}, 0, 0.0, 0.0, 0.5),
            0.0);
  // q <= 0 pins to min, q >= 1 to max.
  EXPECT_EQ(obs::histogram_quantile(bounds, counts, 4, 1.0, 2.0, 0.0), 1.0);
  EXPECT_EQ(obs::histogram_quantile(bounds, counts, 4, 1.0, 2.0, -1.0), 1.0);
  EXPECT_EQ(obs::histogram_quantile(bounds, counts, 4, 1.0, 2.0, 1.0), 2.0);
  EXPECT_EQ(obs::histogram_quantile(bounds, counts, 4, 1.0, 2.0, 2.0), 2.0);
  EXPECT_THROW(
      (void)obs::histogram_quantile(bounds, {0, 4, 0}, 4, 1.0, 2.0, 0.5),
      std::invalid_argument);
}

TEST(ObsQuantile, InterpolatesInsideTheTargetBucket) {
  // All 4 observations in [1, 2): rank q*4 lands in that bucket and
  // interpolates linearly between its edges.
  const std::vector<double> bounds{1.0, 2.0, 3.0};
  const std::vector<std::uint64_t> counts{0, 4, 0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 4, 1.0, 2.0, 0.25),
                   1.25);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 4, 1.0, 2.0, 0.5),
                   1.5);
}

TEST(ObsQuantile, UnderflowAndOverflowBucketsClampToObservedRange) {
  // Underflow bucket has no finite lower edge: its edges are [min, bound]
  // clamped to the observed range.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile({10.0}, {3, 0}, 3, 2.0, 4.0, 0.5),
                   3.0);
  // Overflow bucket has no upper edge: its edges are [bound, max], with the
  // lower edge raised to min when every observation sits above the last bound.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile({1.0}, {0, 3}, 3, 5.0, 9.0, 0.5),
                   7.0);
}

TEST(ObsQuantile, DegenerateBucketReportsItsLowerEdge) {
  // min == max: every bucket collapses and the estimate is the single value.
  EXPECT_EQ(obs::histogram_quantile({1.0}, {2, 0}, 2, 0.5, 0.5, 0.5), 0.5);
}

TEST(ObsQuantile, HistogramAndSnapshotAgree) {
  obs::Histogram h({10.0});
  h.observe(2.0);
  h.observe(4.0);
  h.observe(6.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
  obs::MetricsRegistry reg;
  reg.histogram("lat", {10.0}).observe(2.0);
  reg.histogram("lat", {10.0}).observe(4.0);
  reg.histogram("lat", {10.0}).observe(6.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.5), 4.0);
  EXPECT_EQ(snap.histograms[0].quantile(0.0), 2.0);
  EXPECT_EQ(snap.histograms[0].quantile(1.0), 6.0);
}

// --- Prometheus text exposition ---------------------------------------------

TEST(ObsExposition, PrometheusNameSanitizesAndPrefixes) {
  EXPECT_EQ(obs::prometheus_name("serve.request.latency"),
            "mocos_serve_request_latency");
  EXPECT_EQ(obs::prometheus_name("already_ok:name"), "mocos_already_ok:name");
  EXPECT_EQ(obs::prometheus_name("weird-chars/x"), "mocos_weird_chars_x");
}

TEST(ObsExposition, RendersCountersGaugesHistogramsAndQuantiles) {
  obs::MetricsRegistry reg;
  reg.counter("serve.requests.total").add(3);
  reg.gauge("serve.queue.depth").set(2.5);
  obs::Histogram& h = reg.histogram("serve.request.latency", {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(6.0);
  std::ostringstream out;
  obs::render_prometheus(reg.snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE mocos_serve_requests_total counter\n"
                      "mocos_serve_requests_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mocos_serve_queue_depth gauge\n"
                      "mocos_serve_queue_depth 2.5\n"),
            std::string::npos);
  // Cumulative buckets: le="1" sees 1 observation, le="10" all 3, +Inf = count.
  EXPECT_NE(text.find("mocos_serve_request_latency_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mocos_serve_request_latency_bucket{le=\"10\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mocos_serve_request_latency_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mocos_serve_request_latency_sum 10.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("mocos_serve_request_latency_count 3\n"),
            std::string::npos);
  // Bucket-derived summary gauges ride along the standard exposition shape.
  EXPECT_NE(text.find("mocos_serve_request_latency_quantile{q=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("mocos_serve_request_latency_quantile{q=\"0.99\"} "),
            std::string::npos);
}

// --- Phase profiler ---------------------------------------------------------

TEST(ObsPhaseTimer, RecordAccumulatesPerStack) {
  obs::PhaseTimer t;
  t.record("a", 10, 30);
  t.record("a", 5, 5);
  t.record("a;b", 20, 20);
  const auto stats = t.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("a").count, 2u);
  EXPECT_EQ(stats.at("a").exclusive_ns, 15u);
  EXPECT_EQ(stats.at("a").inclusive_ns, 35u);
  EXPECT_EQ(stats.at("a;b").count, 1u);
}

TEST(ObsPhaseTimer, WriteJsonAndCollapsedAreDeterministic) {
  obs::PhaseTimer t;
  t.record("run;solve", 2500, 2500);
  t.record("run", 1000, 3500);
  std::ostringstream json;
  t.write_json(json);
  EXPECT_EQ(json.str(),
            "{\n  \"version\": 1,\n  \"phases\": {\n"
            "    \"run\": {\"count\": 1, \"exclusive_ns\": 1000, "
            "\"inclusive_ns\": 3500},\n"
            "    \"run;solve\": {\"count\": 1, \"exclusive_ns\": 2500, "
            "\"inclusive_ns\": 2500}\n"
            "  }\n}\n");
  std::ostringstream collapsed;
  t.write_collapsed(collapsed);
  EXPECT_EQ(collapsed.str(), "run 1\nrun;solve 2\n");
  std::ostringstream empty;
  obs::PhaseTimer{}.write_json(empty);
  EXPECT_EQ(empty.str(), "{\n  \"version\": 1,\n  \"phases\": {}\n}\n");
}

TEST(ObsPhaseTimer, ScopedPhaseBuildsStackPathsAndExclusiveTime) {
  EXPECT_EQ(obs::current_profiler(), nullptr);
  obs::PhaseTimer t;
  {
    obs::ScopedProfileInstall install(&t);
    EXPECT_EQ(obs::current_profiler(), &t);
    obs::ScopedPhase outer("outer");
    {
      obs::ScopedPhase inner("inner");
    }
    {
      obs::ScopedPhase inner("inner");
    }
  }
  EXPECT_EQ(obs::current_profiler(), nullptr);
  const auto stats = t.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("outer").count, 1u);
  EXPECT_EQ(stats.at("outer;inner").count, 2u);
  // Exclusive time is inclusive minus direct children, exactly.
  EXPECT_EQ(stats.at("outer").exclusive_ns,
            stats.at("outer").inclusive_ns -
                stats.at("outer;inner").inclusive_ns);
  EXPECT_LE(stats.at("outer;inner").inclusive_ns,
            stats.at("outer").inclusive_ns);
}

TEST(ObsPhaseTimer, ScopedPhaseIsANoOpWhenProfilingIsOff) {
  {
    obs::ScopedPhase phase("ignored");
    obs::ScopedPhase nested("also_ignored");
  }
  // A profiler installed after the fact sees nothing from those scopes.
  obs::PhaseTimer t;
  obs::ScopedProfileInstall install(&t);
  EXPECT_TRUE(t.stats().empty());
}

// --- Request-scoped trace context -------------------------------------------

TEST(ObsTraceContext, NestsAndRestores) {
  EXPECT_EQ(obs::current_trace_context(), "");
  {
    obs::ScopedTraceContext req("req-1");
    EXPECT_EQ(obs::current_trace_context(), "req-1");
    {
      obs::ScopedTraceContext inner("req-2");
      EXPECT_EQ(obs::current_trace_context(), "req-2");
    }
    EXPECT_EQ(obs::current_trace_context(), "req-1");
  }
  EXPECT_EQ(obs::current_trace_context(), "");
}

TEST(ObsTraceContext, EventsCarryTheRequestId) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  {
    obs::ScopedTraceInstall install(&sink);
    obs::trace_instant("outside", "test");
    obs::ScopedTraceContext req("r42");
    obs::ScopedSpan span("work", "test");
    obs::trace_instant("inside", "test");
  }
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].find("\"rid\""), std::string::npos);
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_NE(lines[i].find("\"rid\":\"r42\""), std::string::npos)
        << lines[i];
}

}  // namespace
}  // namespace mocos
