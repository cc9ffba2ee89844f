#include "src/runtime/execution_context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/cli/cli.hpp"
#include "src/descent/multi_start.hpp"
#include "src/multi/team_optimizer.hpp"
#include "src/sim/replication.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

constexpr std::size_t kParallelJobs = 4;

// --- ThreadPool / TaskGroup ------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  {
    runtime::TaskGroup group(pool);
    for (int i = 0; i < 100; ++i)
      group.run([&count] { count.fetch_add(1); });
    group.wait();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  runtime::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

#if defined(__linux__)
// The CPU mask of every worker of `pool`: one task per worker, each held
// until all have started, so no worker can take two of them.
std::vector<cpu_set_t> worker_masks(runtime::ThreadPool& pool) {
  std::vector<cpu_set_t> masks(pool.size());
  std::atomic<std::size_t> started{0};
  runtime::TaskGroup group(pool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    group.run([&, i] {
      CPU_ZERO(&masks[i]);
      sched_getaffinity(0, sizeof masks[i], &masks[i]);
      started.fetch_add(1);
      while (started.load() < masks.size()) std::this_thread::yield();
    });
  }
  group.wait();
  return masks;
}

TEST(ThreadPool, PinsOneWorkerPerCpuWhenThePoolSpansTheMask) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  const auto cpus = static_cast<std::size_t>(CPU_COUNT(&allowed));

  runtime::ThreadPool spanning(cpus);
  cpu_set_t seen;
  CPU_ZERO(&seen);
  for (const cpu_set_t& mask : worker_masks(spanning)) {
    if (cpus < 2) {
      EXPECT_TRUE(CPU_EQUAL(&mask, &allowed));
      continue;
    }
    ASSERT_EQ(CPU_COUNT(&mask), 1);
    cpu_set_t inside;
    CPU_AND(&inside, &mask, &allowed);
    EXPECT_EQ(CPU_COUNT(&inside), 1) << "pinned outside the process mask";
    cpu_set_t repeat;
    CPU_AND(&repeat, &mask, &seen);
    EXPECT_EQ(CPU_COUNT(&repeat), 0) << "two workers on one CPU";
    CPU_OR(&seen, &seen, &mask);
  }

  // Any other size leaves the scheduler the whole mask.
  runtime::ThreadPool wider(cpus + 1);
  for (const cpu_set_t& mask : worker_masks(wider))
    EXPECT_TRUE(CPU_EQUAL(&mask, &allowed));
}
#endif

TEST(TaskGroup, PropagatesLowestIndexException) {
  runtime::ThreadPool pool(4);
  runtime::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.run([i] {
      if (i == 2) throw std::runtime_error("task two");
      if (i == 5) throw std::runtime_error("task five");
    });
  }
  try {
    group.wait();
    FAIL() << "wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task two");
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, kParallelJobs}) {
    runtime::ExecutionContext ctx(jobs);
    std::vector<int> hits(257, 0);
    runtime::parallel_for(ctx, hits.size(),
                          [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ExecutionContext, SerialContextHasNoPool) {
  runtime::ExecutionContext serial;
  EXPECT_TRUE(serial.serial());
  EXPECT_THROW(serial.pool(), std::logic_error);
  runtime::ExecutionContext parallel(3);
  EXPECT_FALSE(parallel.serial());
  EXPECT_EQ(parallel.pool().size(), 3u);
}

// --- Rng indexed streams ---------------------------------------------------

TEST(RngStream, IndependentOfCallAndDrawOrder) {
  util::Rng a(123), b(123);
  // Perturb b's engine state and interleave stream calls in a different
  // order: the indexed derivation must not care.
  for (int i = 0; i < 17; ++i) b.uniform();
  (void)b.stream(7);
  util::Rng sa = a.stream(3);
  util::Rng sb = b.stream(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sa.engine()(), sb.engine()());
}

TEST(RngStream, DistinctIndicesDistinctStreams) {
  util::Rng rng(9);
  util::Rng s0 = rng.stream(0);
  util::Rng s1 = rng.stream(1);
  EXPECT_NE(s0.engine()(), s1.engine()());
}

TEST(RngStream, StreamBaseAdvancesDeterministically) {
  util::Rng a(5), b(5);
  const std::uint64_t base1 = a.stream_base();
  const std::uint64_t base2 = a.stream_base();
  EXPECT_NE(base1, base2);  // successive families differ
  EXPECT_EQ(base1, b.stream_base());  // but are seed-reproducible
}

// --- Determinism across job counts ----------------------------------------

void expect_metric_identical(const sim::ReplicatedMetric& x,
                             const sim::ReplicatedMetric& y) {
  EXPECT_EQ(x.mean, y.mean);
  EXPECT_EQ(x.p25, y.p25);
  EXPECT_EQ(x.p75, y.p75);
  EXPECT_EQ(x.min, y.min);
  EXPECT_EQ(x.max, y.max);
  EXPECT_EQ(x.ci95_low, y.ci95_low);
  EXPECT_EQ(x.ci95_high, y.ci95_high);
}

sim::ReplicationSummary replicate_with_jobs(std::size_t jobs) {
  sensing::TravelModel model(geometry::paper_topology(1), 1.0, 1.0, 0.25);
  util::Rng rng(71);
  sim::SimulationConfig cfg;
  cfg.num_transitions = 4000;
  runtime::ExecutionContext ctx(jobs);
  return sim::replicate(model, markov::TransitionMatrix::uniform(4),
                        model.topology().targets(), 1.0, 1.0, cfg, 6, rng,
                        ctx);
}

TEST(Determinism, ReplicationBitIdenticalAcrossJobs) {
  const auto serial = replicate_with_jobs(1);
  const auto parallel = replicate_with_jobs(kParallelJobs);
  expect_metric_identical(serial.delta_c, parallel.delta_c);
  expect_metric_identical(serial.e_bar, parallel.e_bar);
  expect_metric_identical(serial.cost, parallel.cost);
  ASSERT_EQ(serial.coverage_share.size(), parallel.coverage_share.size());
  for (std::size_t i = 0; i < serial.coverage_share.size(); ++i) {
    expect_metric_identical(serial.coverage_share[i],
                            parallel.coverage_share[i]);
    expect_metric_identical(serial.exposure_steps[i],
                            parallel.exposure_steps[i]);
  }
}

descent::MultiStartResult multi_start_with_jobs(std::size_t jobs) {
  const auto problem = test::paper_problem(1, 1.0, 1.0);
  const auto cost = problem.make_cost();
  descent::MultiStartConfig cfg;
  cfg.starts = 5;
  cfg.perturbed.max_iterations = 40;
  cfg.perturbed.polish_iterations = 10;
  cfg.perturbed.keep_trace = false;
  util::Rng rng(11);
  runtime::ExecutionContext ctx(jobs);
  return descent::multi_start_perturbed(cost, problem.num_pois(), cfg, rng,
                                        ctx);
}

TEST(Determinism, MultiStartWinnerBitIdenticalAcrossJobs) {
  const auto serial = multi_start_with_jobs(1);
  const auto parallel = multi_start_with_jobs(kParallelJobs);
  EXPECT_EQ(serial.best_index, parallel.best_index);
  EXPECT_EQ(serial.best.best_cost, parallel.best.best_cost);
  ASSERT_EQ(serial.costs.size(), parallel.costs.size());
  for (std::size_t k = 0; k < serial.costs.size(); ++k)
    EXPECT_EQ(serial.costs[k], parallel.costs[k]);
  const auto& sp = serial.best.best_p.to_dense();
  const auto& pp = parallel.best.best_p.to_dense();
  for (std::size_t i = 0; i < sp.rows(); ++i)
    for (std::size_t j = 0; j < sp.cols(); ++j)
      EXPECT_EQ(sp(i, j), pp(i, j));
}

TEST(MultiStart, ReportsPerStartDiagnostics) {
  const auto result = multi_start_with_jobs(kParallelJobs);
  EXPECT_EQ(result.costs.size(), 5u);
  EXPECT_EQ(result.reasons.size(), 5u);
  EXPECT_EQ(result.recovery.size(), 5u);
  // The winner really is the arg-min of the per-start costs.
  for (double c : result.costs)
    EXPECT_LE(result.best.best_cost, c);
  EXPECT_EQ(result.best.best_cost, result.costs[result.best_index]);
}

TEST(MultiStart, ValidatesConfig) {
  const auto problem = test::paper_problem(1, 1.0, 1.0);
  const auto cost = problem.make_cost();
  descent::MultiStartConfig cfg;
  cfg.starts = 0;
  util::Rng rng(1);
  EXPECT_THROW(
      descent::multi_start_perturbed(cost, problem.num_pois(), cfg, rng),
      std::invalid_argument);
}

multi::SensorTeam team_with_jobs(std::size_t jobs) {
  const auto problem = test::paper_problem(1, 1.0, 1e-3);
  multi::TeamOptimizerOptions o;
  o.num_sensors = 2;
  o.rounds = 2;
  o.per_sensor.max_iterations = 60;
  o.per_sensor.stall_limit = 30;
  o.per_sensor.keep_trace = false;
  runtime::ExecutionContext ctx(jobs);
  return multi::optimize_team(problem, o, ctx);
}

TEST(Determinism, TeamOptimizerBitIdenticalAcrossJobs) {
  const auto serial = team_with_jobs(1);
  const auto parallel = team_with_jobs(kParallelJobs);
  ASSERT_EQ(serial.num_sensors(), parallel.num_sensors());
  for (std::size_t k = 0; k < serial.num_sensors(); ++k) {
    const auto& sm = serial.chain(k).to_dense();
    const auto& pm = parallel.chain(k).to_dense();
    for (std::size_t i = 0; i < sm.rows(); ++i)
      for (std::size_t j = 0; j < sm.cols(); ++j)
        EXPECT_EQ(sm(i, j), pm(i, j));
  }
}

// --- Batch front end -------------------------------------------------------

class BatchCli : public ::testing::Test {
 protected:
  std::string write(const std::string& name, const std::string& body) {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << body;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::string dir_ = ::testing::TempDir();
  std::vector<std::string> paths_;
};

TEST_F(BatchCli, SummaryByteIdenticalAcrossJobs) {
  write("batch_a.conf",
        "topology = grid:2x2\niterations = 60\nseed = 3\n");
  write("batch_b.conf",
        "topology = points:0,0;3,0;0,4\niterations = 60\nseed = 4\n");
  write("batch_c.conf", "topology = grid:2x2\nalgorithm = magic\n");
  const std::string list = write(
      "batch.list", paths_[0] + "\n" + paths_[1] + "\n# comment\n" +
                        paths_[2] + "\n");

  std::ostringstream out1, err1, out4, err4;
  const int code1 =
      cli::run_cli({"--batch", list, "--jobs", "1"}, out1, err1);
  const int code4 =
      cli::run_cli({"--batch", list, "--jobs", "4"}, out4, err4);
  EXPECT_EQ(code1, cli::kExitBatchPartialFailure);
  EXPECT_EQ(code4, cli::kExitBatchPartialFailure);
  EXPECT_EQ(out1.str(), out4.str());
  EXPECT_EQ(err1.str(), err4.str());
}

TEST_F(BatchCli, IsolatesFailingScenarios) {
  write("iso_good.conf", "topology = grid:2x2\niterations = 50\n");
  write("iso_bad.conf", "topology = blob:nope\n");
  const std::string list =
      write("iso.list", paths_[0] + "\n" + paths_[1] + "\n");

  std::ostringstream out, err;
  const int code = cli::run_cli({"--batch", list, "--jobs", "2"}, out, err);
  EXPECT_EQ(code, cli::kExitBatchPartialFailure);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"succeeded\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_code\": 2"), std::string::npos) << json;
  EXPECT_NE(err.str().find("iso_bad.conf"), std::string::npos);
}

TEST_F(BatchCli, AllGoodScenariosExitZeroAndWriteSummaryFile) {
  write("ok_one.conf", "topology = grid:2x2\niterations = 40\n");
  const std::string list = write("ok.list", paths_[0] + "\n");
  const std::string summary = dir_ + "/batch_summary.json";
  paths_.push_back(summary);

  std::ostringstream out, err;
  const int code = cli::run_cli(
      {"--batch", list, "--jobs", "2", "--summary", summary}, out, err);
  EXPECT_EQ(code, cli::kExitSuccess) << err.str();
  std::ifstream in(summary);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), out.str());
  EXPECT_NE(file.str().find("\"failed\": 0"), std::string::npos);
}

TEST_F(BatchCli, MissingBatchSpecIsBadConfig) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli({"--batch", "/nonexistent-batch-dir"}, out, err),
            cli::kExitBadConfig);
  EXPECT_NE(err.str().find("--batch"), std::string::npos);
}

TEST(CliFlags, RejectsUnknownFlagAndMissingValues) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli({"--frobnicate"}, out, err), cli::kExitBadConfig);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(cli::run_cli({"--jobs"}, out2, err2), cli::kExitBadConfig);
  std::ostringstream out3, err3;
  EXPECT_EQ(cli::run_cli({"--jobs", "two", "x.conf"}, out3, err3),
            cli::kExitBadConfig);
  // The solve route is not a run-time option: the former escape-hatch and
  // sparse-forcing flags are unknown.
  for (const char* removed : {"--sparse", "--no-incremental"}) {
    std::ostringstream o, e;
    EXPECT_EQ(cli::run_cli({removed, "x.conf"}, o, e), cli::kExitBadConfig);
    EXPECT_NE(e.str().find(std::string("unknown flag: ") + removed),
              std::string::npos);
  }
}

TEST(CliFlags, SingleRunIdenticalAcrossJobs) {
  const std::string path = ::testing::TempDir() + "/jobs_single.conf";
  {
    std::ofstream f(path);
    f << "topology = grid:2x2\niterations = 60\nseed = 9\nstarts = 3\n"
         "simulate = 2000\nreplications = 4\n";
  }
  std::ostringstream out1, err1, out4, err4;
  const int code1 = cli::run_cli({"--jobs", "1", path}, out1, err1);
  const int code4 = cli::run_cli({"--jobs", "4", path}, out4, err4);
  EXPECT_EQ(code1, cli::kExitSuccess) << err1.str();
  EXPECT_EQ(code4, cli::kExitSuccess) << err4.str();
  EXPECT_EQ(out1.str(), out4.str());
  EXPECT_NE(out1.str().find("replicated validation"), std::string::npos);
  EXPECT_NE(out1.str().find("3 starts"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mocos
