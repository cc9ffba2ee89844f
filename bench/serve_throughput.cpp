// Load generator for the mocos_serve request loop: replays seeded request
// mixes through the in-process serve() entry point and reports solves/min,
// p50/p99 request latency, shed rate, and the chain-solve memo's hit rate.
// Three scenarios:
//
//   warm_lanes       same-topology requests multiplexed over a few cache-key
//                    lanes with warm starts (the steady-state service shape)
//   cold_topologies  every request a fresh topology, no lane to warm-start
//                    from
//   overload_shed    a tiny admission queue under a burst, to measure the
//                    load-shedding path
//
// Writes BENCH_serve_throughput.json (to MOCOS_BENCH_CSV_DIR when set, else
// the working directory). Latencies come from the server's --timings face,
// so this bench — unlike the replay tests — is deliberately wall-clock.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/serve/server.hpp"

namespace mocos::bench {
namespace {

struct ScenarioStats {
  std::string name;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  double seconds = 0.0;
  double solves_per_min = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  double cache_hit_rate = 0.0;  // exact hits / (exact hits + full solves)
};

std::string request_line(const std::string& id, const std::string& config,
                         const std::string& extra) {
  return "{\"id\": \"" + id + "\", \"config\": \"" + config + "\"" + extra +
         "}\n";
}

/// Pulls `"key": <number>` out of one NDJSON response line; 0 when absent.
double field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

ScenarioStats run_scenario(const std::string& name,
                           const std::string& request_log,
                           const serve::ServeOptions& options) {
  std::istringstream in(request_log);
  std::ostringstream out;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::ServeReport report = serve::serve(in, out, options);
  const auto t1 = std::chrono::steady_clock::now();

  ScenarioStats stats;
  stats.name = name;
  stats.requests = report.requests;
  stats.ok = report.ok;
  stats.shed = report.shed;
  stats.seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.solves_per_min =
      stats.seconds > 0.0
          ? 60.0 * static_cast<double>(report.ok) / stats.seconds
          : 0.0;
  stats.shed_rate = report.requests > 0
                        ? static_cast<double>(report.shed) /
                              static_cast<double>(report.requests)
                        : 0.0;

  std::vector<double> latencies;
  double hits = 0.0;
  double ops = 0.0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"elapsed_ms\"") != std::string::npos)
      latencies.push_back(field(line, "elapsed_ms"));
    hits += field(line, "cache_exact_hits");
    ops += field(line, "cache_exact_hits") + field(line, "cache_full_solves");
  }
  stats.p50_ms = percentile(latencies, 0.50);
  stats.p99_ms = percentile(latencies, 0.99);
  stats.cache_hit_rate = ops > 0.0 ? hits / ops : 0.0;
  return stats;
}

void print_stats(const ScenarioStats& s) {
  banner("serve throughput: " + s.name);
  util::Table t({"requests", "ok", "shed", "seconds", "solves/min",
                 "p50 ms", "p99 ms", "shed rate", "cache hit rate"});
  t.add_row({std::to_string(s.requests), std::to_string(s.ok),
             std::to_string(s.shed), util::fmt(s.seconds, 3),
             util::fmt(s.solves_per_min, 1), util::fmt(s.p50_ms, 2),
             util::fmt(s.p99_ms, 2), util::fmt(s.shed_rate, 3),
             util::fmt(s.cache_hit_rate, 3)});
  t.print(std::cout);
}

void write_json(const std::vector<ScenarioStats>& scenarios,
                std::size_t jobs) {
  const char* dir = std::getenv("MOCOS_BENCH_CSV_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_serve_throughput.json";
  std::ofstream out(path);
  auto num = [&](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", x);
    out << buf;
  };
  out << "{\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"jobs\": " << jobs << ",\n";
  out << "  \"scale\": \"" << (quick_mode() ? "quick" : "full") << "\",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioStats& s = scenarios[i];
    out << "    {\"name\": \"" << s.name << "\", \"requests\": "
        << s.requests << ", \"ok\": " << s.ok << ", \"shed\": " << s.shed
        << ", \"seconds\": ";
    num(s.seconds);
    out << ", \"solves_per_min\": ";
    num(s.solves_per_min);
    out << ", \"p50_ms\": ";
    num(s.p50_ms);
    out << ", \"p99_ms\": ";
    num(s.p99_ms);
    out << ", \"shed_rate\": ";
    num(s.shed_rate);
    out << ", \"cache_hit_rate\": ";
    num(s.cache_hit_rate);
    out << "}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

int run() {
  const std::size_t jobs =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::size_t warm_requests = scaled(200, 40);
  const std::size_t cold_requests = scaled(120, 24);
  const std::size_t burst_requests = scaled(200, 60);

  serve::ServeOptions options;
  options.jobs = jobs;
  options.queue_capacity = 1024;  // headroom: throughput, not shed, here
  options.timings = true;

  std::cout << "serve throughput bench (jobs = " << jobs
            << ", hardware_concurrency = "
            << std::thread::hardware_concurrency() << ")\n";

  std::vector<ScenarioStats> scenarios;

  // Steady-state service shape: a handful of topologies, each its own warm
  // lane, every request a delta against the lane's previous solution.
  {
    std::ostringstream log;
    for (std::size_t i = 0; i < warm_requests; ++i) {
      const std::size_t lane = i % 4;
      const std::string config =
          "topology = grid:3x3\\niterations = 60\\nalgorithm = "
          "adaptive\\nseed = " +
          std::to_string(100 + i);
      std::string extra = ", \"cache_key\": \"lane-" +
                          std::to_string(lane) + "\"";
      if (i >= 4) extra += ", \"warm_start\": true";
      log << request_line("warm-" + std::to_string(i), config, extra);
    }
    scenarios.push_back(
        run_scenario("warm_lanes", log.str(), options));
    print_stats(scenarios.back());
  }

  // Cold path: every request a different topology, no lane, no reuse.
  {
    const char* grids[] = {"grid:2x2", "grid:3x2", "grid:3x3", "grid:4x3"};
    std::ostringstream log;
    for (std::size_t i = 0; i < cold_requests; ++i) {
      const std::string config = std::string("topology = ") + grids[i % 4] +
                                 "\\niterations = 60\\nalgorithm = "
                                 "adaptive\\nseed = " +
                                 std::to_string(500 + i);
      log << request_line("cold-" + std::to_string(i), config, "");
    }
    scenarios.push_back(
        run_scenario("cold_topologies", log.str(), options));
    print_stats(scenarios.back());
  }

  // Overload: a burst against a tiny queue — measures the shedding path and
  // that throughput of admitted work holds up under it.
  {
    serve::ServeOptions overload = options;
    overload.queue_capacity = 4;
    std::ostringstream log;
    for (std::size_t i = 0; i < burst_requests; ++i) {
      const std::string config =
          "topology = grid:3x3\\niterations = 40\\nalgorithm = "
          "adaptive\\nseed = " +
          std::to_string(900 + i);
      log << request_line("burst-" + std::to_string(i), config, "");
    }
    scenarios.push_back(
        run_scenario("overload_shed", log.str(), overload));
    print_stats(scenarios.back());
  }

  write_json(scenarios, jobs);
  return 0;
}

}  // namespace
}  // namespace mocos::bench

int main() { return mocos::bench::run(); }
