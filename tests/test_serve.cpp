// Tests for the mocos_serve subsystem: request decoding, admission control,
// the byte-reproducible replay contract, deadline/watchdog behavior, and
// fault-injected failure isolation (every request line ends in exactly one
// structured response; the server never dies).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/serve/json.hpp"
#include "src/serve/queue.hpp"
#include "src/serve/request.hpp"
#include "src/serve/server.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos {
namespace {

using util::fault::ScopedFault;
using util::fault::Site;

// --- json ----------------------------------------------------------------

TEST(ServeJson, ParsesFlatObject) {
  const auto fields = serve::parse_flat_object(
      R"({"id": "a\nb", "n": -2.5e3, "flag": true, "nothing": null})");
  ASSERT_TRUE(fields.ok()) << fields.status().to_string();
  ASSERT_EQ(fields->size(), 4u);
  EXPECT_EQ(fields->at("id").kind, serve::JsonValue::Kind::kString);
  EXPECT_EQ(fields->at("id").str, "a\nb");
  EXPECT_EQ(fields->at("n").kind, serve::JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(fields->at("n").num, -2500.0);
  EXPECT_TRUE(fields->at("flag").boolean);
  EXPECT_EQ(fields->at("nothing").kind, serve::JsonValue::Kind::kNull);
}

TEST(ServeJson, UnicodeEscapes) {
  const auto fields =
      serve::parse_flat_object(R"({"s": "Aé€"})");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->at("s").str, "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_FALSE(serve::parse_flat_object(R"({"s": "\ud800"})").ok());
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",                       // no object
      "{",                      // unterminated
      R"({"a": 1} trailing)",   // trailing garbage
      R"({"a": 1, "a": 2})",    // duplicate key
      R"({"a": {"b": 1}})",     // nesting
      R"({"a": [1]})",          // array
      R"({"a": 1e})",           // malformed number
      R"({"a": "x)",            // unterminated string
      R"({"a": "\q"})",         // bad escape
      "{\"a\": \"\x01\"}",      // raw control char
  };
  for (const char* line : bad) {
    const auto fields = serve::parse_flat_object(line);
    EXPECT_FALSE(fields.ok()) << "accepted: " << line;
    EXPECT_EQ(fields.status().code(), util::StatusCode::kInvalidConfig);
  }
}

// --- request decoding ----------------------------------------------------

TEST(ServeRequest, ParsesAllFields) {
  const auto req = serve::parse_request(
      R"({"id": "r1", "config": "topology = grid:2x2", "deadline_ms": 250,)"
      R"( "cache_key": "k", "warm_start": true})");
  ASSERT_TRUE(req.ok()) << req.status().to_string();
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->config_text, "topology = grid:2x2");
  EXPECT_EQ(req->deadline_ms, 250u);
  EXPECT_TRUE(req->has_deadline);
  EXPECT_EQ(req->cache_key, "k");
  EXPECT_TRUE(req->warm_start);
}

TEST(ServeRequest, RejectsBadRequests) {
  const char* bad[] = {
      R"({"config": "topology = grid:2x2"})",          // missing id
      R"({"id": "a"})",                                // missing config
      R"({"id": "a", "config": "c", "extra": 1})",     // unknown field
      R"({"id": "a", "config": "c", "deadline_ms": -1})",
      R"({"id": "a", "config": "c", "deadline_ms": 1.5})",
      R"({"id": "a", "config": "c", "warm_start": true})",  // no cache_key
      R"({"id": 7, "config": "c"})",                   // mistyped id
  };
  for (const char* line : bad) {
    const auto req = serve::parse_request(line);
    EXPECT_FALSE(req.ok()) << "accepted: " << line;
  }
}

TEST(ServeRequest, DecodeFaultSiteSurfacesAsStatus) {
  ScopedFault fault(Site::kServeDecodeFault, 0);
  const auto req =
      serve::parse_request(R"({"id": "a", "config": "c"})");
  ASSERT_FALSE(req.ok());
  EXPECT_NE(req.status().message().find("injected"), std::string::npos);
}

TEST(ServeRequest, SeedFromIdIsStableAndSpread) {
  const std::uint64_t s1 = serve::seed_from_request_id("job-1");
  EXPECT_EQ(s1, serve::seed_from_request_id("job-1"));
  // Near-identical ids must land on unrelated seeds (SplitMix64 finalizer).
  EXPECT_NE(s1, serve::seed_from_request_id("job-2"));
  EXPECT_NE(s1 >> 32, serve::seed_from_request_id("job-2") >> 32);
}

TEST(ServeResponse, FixedKeyOrderAndEscaping) {
  serve::Response r;
  r.seq = 3;
  r.id = "a\"b";
  r.code = 6;
  r.status = "shed";
  r.error = "queue full";
  r.retry_after_ms = 75;
  std::ostringstream out;
  serve::write_response(r, out);
  EXPECT_EQ(out.str(),
            "{\"seq\": 3, \"id\": \"a\\\"b\", \"code\": 6, "
            "\"status\": \"shed\", \"error\": \"queue full\", "
            "\"retry_after_ms\": 75}\n");
}

// --- admission gate ------------------------------------------------------

TEST(AdmissionGate, BoundsDepthAndTracksPeak) {
  serve::AdmissionGate gate(2);
  EXPECT_TRUE(gate.try_admit());
  EXPECT_TRUE(gate.try_admit());
  EXPECT_FALSE(gate.try_admit());  // full
  EXPECT_EQ(gate.depth(), 2u);
  EXPECT_EQ(gate.peak(), 2u);
  EXPECT_EQ(gate.shed_count(), 1u);
  gate.release();
  EXPECT_TRUE(gate.try_admit());
  EXPECT_EQ(gate.peak(), 2u);  // never exceeded capacity
  gate.release();
  gate.release();
  EXPECT_THROW(gate.release(), std::logic_error);
}

TEST(AdmissionGate, RetryHintGrowsWithLoad) {
  serve::AdmissionGate gate(4);
  const std::uint64_t empty = gate.retry_after_ms_hint();
  ASSERT_TRUE(gate.try_admit());
  ASSERT_TRUE(gate.try_admit());
  EXPECT_GT(gate.retry_after_ms_hint(), empty);
  gate.release();
  gate.release();
}

TEST(AdmissionGate, QueueFullFaultForcesShed) {
  serve::AdmissionGate gate(8);
  ScopedFault fault(Site::kServeQueueFull, 0);
  EXPECT_FALSE(gate.try_admit());  // injected shed despite empty gate
  EXPECT_EQ(gate.shed_count(), 1u);
  EXPECT_TRUE(gate.try_admit());
  gate.release();
}

// --- obs support added for serve ----------------------------------------

TEST(ServeMetrics, GaugeSetMaxKeepsHighWaterMark) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("peak");
  g.set_max(3.0);
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(ServeMetrics, GaugeSetMaxOnUnsetGaugeKeepsNegativeValues) {
  // The unset sentinel is -infinity, not 0: a first set_max below zero must
  // record the observed value, not silently clamp it up.
  obs::Gauge g;
  EXPECT_FALSE(g.has_value());
  g.set_max(-5.0);
  EXPECT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), -5.0);
  g.set_max(-9.0);
  EXPECT_DOUBLE_EQ(g.value(), -5.0);
}

// --- end-to-end serve loop -----------------------------------------------

serve::ServeOptions test_options() {
  serve::ServeOptions options;
  options.jobs = 2;
  options.queue_capacity = 64;
  return options;
}

std::string tiny_config(int iterations, const char* algo = "adaptive") {
  return "topology = grid:2x2\\niterations = " + std::to_string(iterations) +
         "\\nalgorithm = " + std::string(algo);
}

std::string request_line(const std::string& id, const std::string& config,
                         const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"config\": \"" + config + "\"" + extra +
         "}";
}

serve::ServeReport run_serve(const std::string& input, std::string& output,
                             const serve::ServeOptions& options) {
  serve::reset_drain();
  std::istringstream in(input);
  std::ostringstream out;
  const serve::ServeReport report = serve::serve(in, out, options);
  output = out.str();
  return report;
}

/// The 500-request replay log shared by the byte-identity and metrics-merge
/// gates: keyed lanes with warm starts, cold requests, and malformed lines.
std::string build_replay_log(int requests = 500) {
  std::ostringstream log;
  for (int i = 0; i < requests; ++i) {
    if (i % 25 == 24) {
      log << "this line is not json #" << i << "\n";  // decode-error path
      continue;
    }
    const std::string id = "req-" + std::to_string(i);
    const std::string config = tiny_config(8 + i % 3);
    if (i % 5 == 0) {
      log << request_line(id, config) << "\n";  // cold request
    } else {
      const std::string key = "lane-" + std::to_string(i % 4);
      std::string extra = ", \"cache_key\": \"" + key + "\"";
      if (i > 20) extra += ", \"warm_start\": true";
      log << request_line(id, config, extra) << "\n";
    }
  }
  return log.str();
}

/// The ISSUE acceptance gate: a seeded 500-request log — keyed lanes with
/// warm starts, cold requests, and malformed lines — replays byte-identically
/// at 1 worker and at 8.
TEST(ServeReplay, FiveHundredRequestsByteIdenticalAcrossJobs) {
  std::ostringstream log;
  log << build_replay_log();

  serve::ServeOptions options = test_options();
  options.queue_capacity = 600;  // no sheds: identity covers the happy path
  options.max_lanes = 3;  // 4 keys over 3 slots: steady LRU eviction churn,
                          // so warm-vs-cold decisions are part of the gate
  std::string out_jobs1;
  std::string out_jobs8;
  options.jobs = 1;
  const serve::ServeReport r1 = run_serve(log.str(), out_jobs1, options);
  options.jobs = 8;
  const serve::ServeReport r8 = run_serve(log.str(), out_jobs8, options);

  EXPECT_EQ(r1.requests, 500u);
  EXPECT_EQ(r8.requests, 500u);
  EXPECT_EQ(r1.shed, 0u);
  EXPECT_GT(r1.ok, 400u);
  EXPECT_EQ(r1.errors, 20u);  // the malformed lines, nothing else
  EXPECT_EQ(out_jobs1, out_jobs8);
}

TEST(ServeLoop, WarmLaneReusesSolution) {
  // A lane keeps its key's last solution: w2 warm-starts from w1's final
  // schedule, so it starts no worse than w1 finished and needs no more
  // iterations than w1 did.
  const std::string input =
      request_line("w1", tiny_config(20), ", \"cache_key\": \"k\"") + "\n" +
      request_line("w2", tiny_config(20),
                   ", \"cache_key\": \"k\", \"warm_start\": true") +
      "\n";
  std::string output;
  const serve::ServeReport report =
      run_serve(input, output, test_options());
  EXPECT_EQ(report.ok, 2u);
  std::istringstream lines(output);
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first) && std::getline(lines, second));
  const auto w1 = serve::parse_flat_object(first);
  const auto w2 = serve::parse_flat_object(second);
  ASSERT_TRUE(w1.ok() && w2.ok());
  ASSERT_EQ(w1->at("id").str, "w1");
  ASSERT_EQ(w2->at("id").str, "w2");
  EXPECT_FALSE(w1->at("warm_started").boolean);
  EXPECT_TRUE(w2->at("warm_started").boolean);
  EXPECT_LE(w2->at("cost").num, w1->at("cost").num);
  EXPECT_LE(w2->at("iterations").num, w1->at("iterations").num);
}

TEST(ServeLoop, LruEvictionBoundsLanesAndColdStartsEvictedKeys) {
  const std::string metrics_path = "serve_eviction_metrics_test.json";
  // max_lanes = 1: dispatching key "b" evicts key "a", so a's later
  // warm_start request finds a cold lane and must report warm_started
  // false — and the lane map never holds more than one lane.
  const std::string input =
      request_line("a1", tiny_config(15), ", \"cache_key\": \"a\"") + "\n" +
      request_line("b1", tiny_config(15), ", \"cache_key\": \"b\"") + "\n" +
      request_line("a2", tiny_config(15),
                   ", \"cache_key\": \"a\", \"warm_start\": true") +
      "\n";
  serve::ServeOptions options = test_options();
  options.jobs = 1;
  options.max_lanes = 1;
  options.metrics_path = metrics_path;
  std::string output;
  const serve::ServeReport report = run_serve(input, output, options);
  EXPECT_EQ(report.ok, 3u);
  const std::size_t a2 = output.find("\"id\": \"a2\"");
  ASSERT_NE(a2, std::string::npos);
  EXPECT_NE(output.find("\"warm_started\": false", a2), std::string::npos);
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream contents;
  contents << metrics.rdbuf();
  EXPECT_NE(contents.str().find("\"serve.lanes.evicted\": 2"),
            std::string::npos)
      << contents.str();
  EXPECT_NE(contents.str().find("\"serve.lanes.live\": 1"),
            std::string::npos)
      << contents.str();
  std::remove(metrics_path.c_str());
}

TEST(ServeLoop, WarmStartedFlagTracksActualApplication) {
  // starts > 1 makes run_optimization decline the offered warm start; the
  // response must say so instead of reporting the offer as a hit.
  const std::string multi_start_config =
      "topology = grid:2x2\\niterations = 10\\nalgorithm = "
      "perturbed\\nstarts = 2";
  const std::string input =
      request_line("m1", multi_start_config, ", \"cache_key\": \"m\"") +
      "\n" +
      request_line("m2", multi_start_config,
                   ", \"cache_key\": \"m\", \"warm_start\": true") +
      "\n";
  std::string output;
  const serve::ServeReport report =
      run_serve(input, output, test_options());
  EXPECT_EQ(report.ok, 2u);
  const std::size_t second = output.find("\"id\": \"m2\"");
  ASSERT_NE(second, std::string::npos);
  EXPECT_NE(output.find("\"warm_started\": false", second),
            std::string::npos);
}

TEST(ServeLoop, WarmStartOffTheSupportFallsBackToTheConfigStart) {
  // The lane's last solution comes from an unrestricted run and puts mass on
  // every transition. A support-restricted request under the same key must
  // not start from it (no coverage entry prices those transitions) but from
  // its own support-uniform start, exactly as a cold request does.
  const std::string dense =
      "topology = city:36:3\\nradius = 0.1\\nalgorithm = adaptive\\n"
      "iterations = 3";
  const std::string restricted = dense + "\\nsupport_radius = 1.6";
  const std::string input =
      request_line("d1", dense, ", \"cache_key\": \"s\"") + "\n" +
      request_line("r1", restricted,
                   ", \"cache_key\": \"s\", \"warm_start\": true") +
      "\n" + request_line("r2", restricted, "") + "\n";
  std::string output;
  const serve::ServeReport report =
      run_serve(input, output, test_options());
  EXPECT_EQ(report.ok, 3u) << output;
  std::istringstream lines(output);
  std::string line;
  std::optional<std::map<std::string, serve::JsonValue>> r1;
  std::optional<std::map<std::string, serve::JsonValue>> r2;
  while (std::getline(lines, line)) {
    auto parsed = serve::parse_flat_object(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const auto id = parsed->find("id");
    if (id == parsed->end()) continue;
    if (id->second.str == "r1") r1 = std::move(*parsed);
    else if (id->second.str == "r2") r2 = std::move(*parsed);
  }
  ASSERT_TRUE(r1 && r2) << output;
  EXPECT_FALSE(r1->at("warm_started").boolean);
  EXPECT_EQ(r1->at("cost").num, r2->at("cost").num);
}

TEST(ServeLoop, DeadlineCutsRunWithBestSoFar) {
  serve::ServeOptions options = test_options();
  options.jobs = 1;
  const std::string input = request_line(
      "slow",
      "topology = grid:3x3\\niterations = 1000000\\nalgorithm = perturbed",
      ", \"deadline_ms\": 80");
  std::string output;
  const serve::ServeReport report = run_serve(input + "\n", output, options);
  EXPECT_EQ(report.deadline_exceeded, 1u);
  EXPECT_NE(output.find("\"code\": 5"), std::string::npos);
  EXPECT_NE(output.find("\"status\": \"deadline-exceeded\""),
            std::string::npos);
  // Degradation, not loss: the response still carries the best iterate.
  EXPECT_NE(output.find("\"stop_reason\": \"cancelled\""),
            std::string::npos);
  EXPECT_NE(output.find("\"cost\": "), std::string::npos);
}

TEST(ServeLoop, InjectedQueueFullShedsWithBackoffHint) {
  // Fire on admissions 1 and 2 (0-based): requests two and three shed
  // deterministically, independent of worker timing.
  ScopedFault fault(Site::kServeQueueFull, 1, 2);
  std::ostringstream log;
  for (int i = 0; i < 5; ++i) {
    std::string id = "q";
    id += std::to_string(i);
    log << request_line(id, tiny_config(10)) << "\n";
  }
  std::string output;
  const serve::ServeReport report =
      run_serve(log.str(), output, test_options());
  EXPECT_EQ(report.requests, 5u);
  EXPECT_EQ(report.shed, 2u);
  EXPECT_EQ(report.ok, 3u);
  EXPECT_NE(output.find("\"code\": 6"), std::string::npos);
  EXPECT_NE(output.find("\"status\": \"shed\""), std::string::npos);
  EXPECT_NE(output.find("\"retry_after_ms\": "), std::string::npos);
  EXPECT_LE(report.peak_depth, test_options().queue_capacity);
}

TEST(ServeLoop, InjectedDecodeFaultIsIsolated) {
  ScopedFault fault(Site::kServeDecodeFault, 0);  // first decode fails
  const std::string input = request_line("d1", tiny_config(10)) + "\n" +
                            request_line("d2", tiny_config(10)) + "\n";
  std::string output;
  const serve::ServeReport report =
      run_serve(input, output, test_options());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_NE(output.find("injected decode fault"), std::string::npos);
  EXPECT_NE(output.find("\"id\": \"d2\", \"code\": 0"), std::string::npos);
}

TEST(ServeLoop, WatchdogFailsStuckRequestNotServer) {
  ScopedFault fault(Site::kServeStuckWorker, 0);  // first request wedges
  serve::ServeOptions options = test_options();
  // One worker pins dispatch order: with two, either request could reach
  // the one-shot fault site first, and the wedge only engages when the
  // faulted request carries a deadline.
  options.jobs = 1;
  options.watchdog_grace_ms = 40;
  options.watchdog_poll_ms = 5;
  const std::string input =
      request_line("stuck", tiny_config(10), ", \"deadline_ms\": 30") +
      "\n" + request_line("after", tiny_config(10)) + "\n";
  std::string output;
  const serve::ServeReport report = run_serve(input, output, options);
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.deadline_exceeded, 1u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_NE(output.find("watchdog"), std::string::npos);
  EXPECT_NE(output.find("\"id\": \"after\", \"code\": 0"),
            std::string::npos);
}

TEST(ServeLoop, AbandonedWorkerOutlivingDrainIsJoinedBeforeTeardown) {
  // The last request wedges on a warm lane: the watchdog answers it, the
  // drain wait is satisfied by that response, and server teardown races the
  // still-running worker's writes to lane state. The pool must join that
  // worker before lane/inflight/emit state is destroyed (ASan drill).
  for (int round = 0; round < 3; ++round) {
    ScopedFault fault(Site::kServeStuckWorker, 1);  // second request wedges
    serve::ServeOptions options = test_options();
    options.jobs = 1;
    options.watchdog_grace_ms = 20;
    options.watchdog_poll_ms = 2;
    const std::string input =
        request_line("warm", tiny_config(10), ", \"cache_key\": \"k\"") +
        "\n" +
        request_line("wedge", tiny_config(10),
                     ", \"cache_key\": \"k\", \"deadline_ms\": 20") +
        "\n";
    std::string output;
    const serve::ServeReport report = run_serve(input, output, options);
    EXPECT_EQ(report.requests, 2u);
    EXPECT_EQ(report.deadline_exceeded, 1u);
    EXPECT_NE(output.find("watchdog"), std::string::npos);
  }
}

TEST(ServeLoop, EveryLineGetsExactlyOneResponseUnderChaos) {
  // Request-layer chaos: probabilistic decode faults and sheds, plus
  // deadlines. Invariant under test: one response per line, each in a known
  // terminal state, queue depth bounded — the server never crashes and
  // never leaks a request.
  util::fault::arm_probabilistic(Site::kServeDecodeFault, 0.2, 3);
  util::fault::arm_probabilistic(Site::kServeQueueFull, 0.3, 7);
  std::ostringstream log;
  const int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    std::string id = "c";
    id += std::to_string(i);
    log << request_line(id, tiny_config(10 + i % 5),
                        ", \"deadline_ms\": 2000")
        << "\n";
  }
  serve::ServeOptions options = test_options();
  options.queue_capacity = 4;
  std::string output;
  const serve::ServeReport report =
      run_serve(log.str(), output, options);
  util::fault::disarm_all();

  EXPECT_EQ(report.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(report.ok + report.errors + report.deadline_exceeded +
                report.shed,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(report.peak_depth, options.queue_capacity);
  EXPECT_GT(report.shed + report.errors, 0u);  // the chaos actually fired

  // Exactly one response per seq, emitted in arrival order.
  std::istringstream lines(output);
  std::string line;
  std::uint64_t expect_seq = 0;
  while (std::getline(lines, line)) {
    const std::string prefix = "{\"seq\": " + std::to_string(expect_seq);
    EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
    ++expect_seq;
  }
  EXPECT_EQ(expect_seq, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeLoop, DrainRequestStopsAcceptingAndFlushesMetrics) {
  const std::string metrics_path = "serve_drain_metrics_test.json";
  serve::ServeOptions options = test_options();
  options.metrics_path = metrics_path;
  std::string output;
  // Drain already requested: the server must accept nothing, still write a
  // complete final metrics snapshot, and report the early drain.
  serve::reset_drain();
  serve::request_drain();
  std::istringstream in(request_line("never", tiny_config(10)) + "\n");
  std::ostringstream out;
  const serve::ServeReport report = serve::serve(in, out, options);
  serve::reset_drain();
  EXPECT_TRUE(report.drained_early);
  EXPECT_EQ(report.requests, 0u);
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream contents;
  contents << metrics.rdbuf();
  EXPECT_NE(contents.str().find("serve.requests.total"), std::string::npos);
  EXPECT_NE(contents.str().find("serve.queue.peak_depth"),
            std::string::npos);
  std::remove(metrics_path.c_str());
}

// --- Metrics-merge correctness (DESIGN.md §15) -----------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// Sums every per-request delta's counters via the on_request_metrics hook
/// and asserts the final snapshot file carries exactly those totals — the
/// merge loses nothing and double-counts nothing, across lane eviction
/// churn and (in the drain variant below) a mid-log SIGTERM drain.
void expect_delta_sums_match_final_snapshot(
    const std::map<std::string, std::uint64_t>& sums,
    const std::string& metrics_json) {
  ASSERT_FALSE(sums.empty());
  for (const auto& [name, value] : sums) {
    const std::string needle =
        "\"" + name + "\": " + std::to_string(value);
    EXPECT_NE(metrics_json.find(needle), std::string::npos)
        << "final snapshot disagrees with delta sum: wanted " << needle;
  }
}

TEST(ServeMetricsMerge, FinalSnapshotEqualsSumOfPerRequestDeltas) {
  const std::string metrics_path = "serve_merge_metrics_test.json";
  serve::ServeOptions options = test_options();
  options.jobs = 4;
  options.queue_capacity = 600;
  options.max_lanes = 3;  // 4 keys over 3 slots: steady eviction churn
  options.metrics_path = metrics_path;
  std::map<std::string, std::uint64_t> sums;
  std::uint64_t hook_calls = 0;
  std::uint64_t last_seq = 0;
  bool arrival_order = true;
  options.on_request_metrics = [&](const serve::Response& r,
                                   const obs::MetricsSnapshot& delta) {
    // The hook fires under the emit lock in arrival order: seq is exactly
    // the call index.
    if (r.seq != hook_calls) arrival_order = false;
    last_seq = r.seq;
    ++hook_calls;
    for (const auto& c : delta.counters) sums[c.name] += c.value;
  };
  std::string output;
  const serve::ServeReport report =
      run_serve(build_replay_log(), output, options);
  EXPECT_EQ(report.requests, 500u);
  EXPECT_EQ(hook_calls, 500u);
  EXPECT_EQ(last_seq, 499u);
  EXPECT_TRUE(arrival_order);
  const std::string metrics_json = read_file(metrics_path);
  ASSERT_FALSE(metrics_json.empty());
  expect_delta_sums_match_final_snapshot(sums, metrics_json);
  // Spot-check that the deltas carried real optimizer work, not just
  // empties: 480 well-formed requests each start one descent run.
  EXPECT_EQ(sums["serve.requests.started"], 480u);
  EXPECT_EQ(sums["descent.runs"], 480u);
  EXPECT_GT(sums["descent.iterations"], 0u);
  std::remove(metrics_path.c_str());
}

/// std::streambuf over a fixed string that calls serve::request_drain()
/// once `drain_after_lines` newlines have been consumed — an in-process
/// stand-in for SIGTERM arriving mid-log.
class DrainingSource : public std::streambuf {
 public:
  DrainingSource(std::string text, int drain_after_lines)
      : text_(std::move(text)), remaining_(drain_after_lines) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    ch_ = text_[pos_++];
    if (ch_ == '\n' && remaining_ > 0 && --remaining_ == 0)
      serve::request_drain();
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
  int remaining_;
  char ch_ = 0;
};

TEST(ServeMetricsMerge, DeltaSumsHoldAcrossMidLogDrain) {
  const std::string metrics_path = "serve_merge_drain_metrics_test.json";
  serve::ServeOptions options = test_options();
  options.jobs = 2;
  options.queue_capacity = 600;
  options.max_lanes = 3;
  options.metrics_path = metrics_path;
  std::map<std::string, std::uint64_t> sums;
  std::uint64_t hook_calls = 0;
  options.on_request_metrics = [&](const serve::Response&,
                                   const obs::MetricsSnapshot& delta) {
    ++hook_calls;
    for (const auto& c : delta.counters) sums[c.name] += c.value;
  };
  serve::reset_drain();
  DrainingSource source(build_replay_log(200), 60);
  std::istream in(&source);
  std::ostringstream out;
  const serve::ServeReport report = serve::serve(in, out, options);
  serve::reset_drain();
  EXPECT_TRUE(report.drained_early);
  // Drain fires while line 60 is being read: that line still completes, and
  // the read loop stops before the next one.
  EXPECT_EQ(report.requests, 60u);
  EXPECT_EQ(hook_calls, 60u);
  const std::string metrics_json = read_file(metrics_path);
  ASSERT_FALSE(metrics_json.empty());
  expect_delta_sums_match_final_snapshot(sums, metrics_json);
  std::remove(metrics_path.c_str());
}

// --- Live telemetry endpoint (DESIGN.md §15) -------------------------------

/// Minimal HTTP/1.0 client against the loopback endpoint; returns the whole
/// response (status line + headers + body), or "" when the connection fails.
std::string http_request(int port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request_text.size()) {
    const ssize_t n = ::send(fd, request_text.data() + off,
                             request_text.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

/// Blocks serve()'s reader until the test has finished scraping, then
/// delivers EOF — keeps the server (and its endpoint) alive on demand.
class BlockingFeed : public std::streambuf {
 public:
  void feed(const std::string& text) {
    std::lock_guard<std::mutex> lock(mu_);
    buffer_ += text;
    cv_.notify_all();
  }
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pos_ < buffer_.size() || closed_; });
    if (pos_ >= buffer_.size()) return traits_type::eof();
    ch_ = buffer_[pos_++];
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string buffer_;
  std::size_t pos_ = 0;
  bool closed_ = false;
  char ch_ = 0;
};

/// Polls `path` for a port number written by the server (one decimal line),
/// for up to ~5 seconds. Returns -1 on timeout.
int wait_for_port_file(const std::string& path) {
  for (int tries = 0; tries < 500; ++tries) {
    std::ifstream in(path);
    int port = -1;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

TEST(ServeTelemetry, EndpointServesMetricsAndHealth) {
  const std::string port_file = "serve_endpoint_port_test.txt";
  std::remove(port_file.c_str());
  serve::ServeOptions options = test_options();
  options.metrics_port = 0;  // ephemeral
  options.metrics_port_file = port_file;
  BlockingFeed feed;
  feed.feed(request_line("t1", tiny_config(10)) + "\n" +
            request_line("t2", tiny_config(10)) + "\n");
  std::istream in(&feed);
  std::ostringstream out;
  serve::reset_drain();
  serve::ServeReport report;
  std::thread server(
      [&] { report = serve::serve(in, out, options); });

  const int port = wait_for_port_file(port_file);
  ASSERT_GT(port, 0) << "endpoint never wrote its port file";

  // /metrics reflects merged request metrics once both responses flushed;
  // poll rather than race the workers.
  std::string metrics;
  for (int tries = 0; tries < 500; ++tries) {
    metrics = http_get(port, "/metrics");
    if (metrics.find("mocos_serve_requests_ok 2") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("mocos_serve_requests_ok 2"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE mocos_serve_request_latency histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("mocos_serve_request_latency_quantile{q=\"0.99\"}"),
            std::string::npos);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"queue_depth\": "), std::string::npos);
  EXPECT_NE(health.find("\"lanes_live\": "), std::string::npos);
  EXPECT_NE(health.find("\"draining\": false"), std::string::npos);

  EXPECT_NE(http_get(port, "/nope").find("HTTP/1.0 404 Not Found"),
            std::string::npos);
  EXPECT_NE(http_request(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405 Method Not Allowed"),
            std::string::npos);

  feed.close();
  server.join();
  EXPECT_EQ(report.requests, 2u);
  EXPECT_EQ(report.ok, 2u);
  std::remove(port_file.c_str());
}

TEST(ServeTelemetry, ProfileFileWrittenAtDrain) {
  const std::string profile_path = "serve_profile_test.json";
  std::remove(profile_path.c_str());
  serve::ServeOptions options = test_options();
  options.jobs = 1;
  options.profile_path = profile_path;
  std::string output;
  const serve::ServeReport report = run_serve(
      request_line("p1", tiny_config(10)) + "\n", output, options);
  EXPECT_EQ(report.ok, 1u);
  const std::string profile = read_file(profile_path);
  ASSERT_FALSE(profile.empty());
  EXPECT_NE(profile.find("\"version\": 1"), std::string::npos);
  // Stacks are rooted at the serve.request phase the server installs.
  EXPECT_NE(profile.find("\"serve.request\""), std::string::npos) << profile;
  EXPECT_NE(profile.find("\"serve.request;"), std::string::npos) << profile;
  std::remove(profile_path.c_str());
}

/// The replay contract with the telemetry plane switched on: the same
/// 500-request log, jobs 1 vs 8, while a scraper hammers /metrics and
/// /healthz — responses stay byte-identical (the endpoint only reads).
TEST(ServeReplay, EndpointEnabledReplayIsByteIdenticalWhilePolled) {
  const std::string log = build_replay_log();
  serve::ServeOptions options = test_options();
  options.queue_capacity = 600;
  options.max_lanes = 3;
  options.metrics_port = 0;

  auto run_polled = [&](std::size_t jobs, const std::string& port_file) {
    std::remove(port_file.c_str());
    options.jobs = jobs;
    options.metrics_port_file = port_file;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> scrapes{0};
    std::thread poller([&] {
      int port = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        if (port <= 0) {
          std::ifstream in(port_file);
          if (!(in >> port)) port = -1;
        }
        if (port > 0) {
          if (http_get(port, "/metrics").find("200 OK") !=
              std::string::npos)
            scrapes.fetch_add(1, std::memory_order_relaxed);
          http_get(port, "/healthz");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::string output;
    const serve::ServeReport report = run_serve(log, output, options);
    stop.store(true, std::memory_order_relaxed);
    poller.join();
    std::remove(port_file.c_str());
    EXPECT_EQ(report.requests, 500u);
    EXPECT_GT(scrapes.load(), 0u) << "the poller never reached /metrics";
    return output;
  };

  const std::string out_jobs1 = run_polled(1, "serve_poll_port_j1.txt");
  const std::string out_jobs8 = run_polled(8, "serve_poll_port_j8.txt");
  EXPECT_EQ(out_jobs1, out_jobs8);
}

}  // namespace
}  // namespace mocos
