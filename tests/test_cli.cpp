#include "src/cli/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/temporary_file.hpp"

namespace mocos::cli {
namespace {


TEST(BuildProblem, GridTopologyWithDefaults) {
  const auto cfg = util::Config::parse_string("topology = grid:2x2\n");
  const auto problem = build_problem(cfg);
  EXPECT_EQ(problem.num_pois(), 4u);
  for (double t : problem.targets()) EXPECT_DOUBLE_EQ(t, 0.25);
}

TEST(BuildProblem, PointsTopologyWithTargets) {
  const auto cfg = util::Config::parse_string(
      "topology = points:0,0;3,0;0,4\ntargets = 0.5,0.25,0.25\n");
  const auto problem = build_problem(cfg);
  EXPECT_EQ(problem.num_pois(), 3u);
  EXPECT_DOUBLE_EQ(problem.targets()[0], 0.5);
  EXPECT_DOUBLE_EQ(problem.topology().distance(0, 1), 3.0);
}

TEST(BuildProblem, WeightsAndPhysicsPropagate) {
  const auto cfg = util::Config::parse_string(
      "topology = grid:2x2\nalpha = 2\nbeta = 0.5\nspeed = 3\npause = 0.5\n"
      "radius = 0.1\nentropy_weight = 0.2\n");
  const auto problem = build_problem(cfg);
  EXPECT_DOUBLE_EQ(problem.weights().alpha, 2.0);
  EXPECT_DOUBLE_EQ(problem.weights().beta, 0.5);
  EXPECT_DOUBLE_EQ(problem.weights().entropy_weight, 0.2);
  // entropy + coverage + exposure + barrier
  EXPECT_EQ(problem.make_cost().num_terms(), 4u);
  EXPECT_NEAR(problem.model().travel_time(0, 1), 1.0 / 3.0, 1e-12);
}

TEST(BuildProblem, ObstacleSwitchesToRoutedModel) {
  const auto cfg = util::Config::parse_string(
      "topology = points:0,0;4,0\n"
      "obstacle = rect:1.8,-1.0,2.2,1.0\nclearance = 0.05\n");
  const auto problem = build_problem(cfg);
  EXPECT_GT(problem.model().travel_distance(0, 1), 4.0);  // detour
}

TEST(BuildProblem, PolygonObstacle) {
  const auto cfg = util::Config::parse_string(
      "topology = points:0,0;4,0\n"
      "obstacle = poly:1.8,-1.0;2.2,-1.0;2.2,1.0;1.8,1.0\n"
      "clearance = 0.05\n");
  EXPECT_GT(build_problem(cfg).model().travel_distance(0, 1), 4.0);
}

TEST(BuildProblem, RejectsMalformedSpecs) {
  using util::Config;
  EXPECT_THROW(build_problem(Config::parse_string("alpha = 1\n")),
               std::out_of_range);  // no topology
  EXPECT_THROW(build_problem(Config::parse_string("topology = grid:4\n")),
               std::invalid_argument);
  EXPECT_THROW(build_problem(Config::parse_string("topology = blob:2\n")),
               std::invalid_argument);
  EXPECT_THROW(
      build_problem(Config::parse_string("topology = points:0,0;1\n")),
      std::invalid_argument);
  EXPECT_THROW(build_problem(Config::parse_string(
                   "topology = grid:2x2\ntargets = 0.5,0.5\n")),
               std::invalid_argument);
  EXPECT_THROW(build_problem(Config::parse_string(
                   "topology = grid:2x2\nobstacle = rect:1,1\n")),
               std::invalid_argument);
  EXPECT_THROW(build_problem(Config::parse_string(
                   "topology = grid:2x2\nobstacle = circle:1,1,2\n")),
               std::invalid_argument);
}


TEST(BuildProblem, PerPoiWeightsAndEventRates) {
  const auto cfg = util::Config::parse_string(
      "topology = grid:2x2\n"
      "alpha = 0\nbeta = 0\n"
      "alpha_i = 1,0,0,0\n"
      "event_rates = 2,1,1,1\n"
      "information_gamma = 0.5\n");
  const auto problem = build_problem(cfg);
  // coverage (per-PoI alpha) + barrier + information capture.
  EXPECT_EQ(problem.make_cost().num_terms(), 3u);
  EXPECT_EQ(problem.weights().event_rates.size(), 4u);
  EXPECT_DOUBLE_EQ(problem.weights().information_gamma, 0.5);
}

TEST(BuildProblem, MalformedPerPoiListsReported) {
  const auto cfg = util::Config::parse_string(
      "topology = grid:2x2\nalpha_i = 1,0\n");  // wrong length
  const auto problem = build_problem(cfg);
  EXPECT_THROW(problem.make_cost(), std::invalid_argument);
}

TEST(RunCli, UsageErrorWithoutArgs) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(RunCli, MissingFileIsBadConfig) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"/nonexistent.conf"}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find("/nonexistent.conf"), std::string::npos);
}

TEST(RunCli, MalformedConfigLineIsBadConfigWithLocation) {
  const test::TemporaryFile conf("cli_malformed.conf",
                                 "topology = grid:2x2\n"
                                 "this line has no equals sign\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find(":2:"), std::string::npos) << err.str();
}

TEST(RunCli, EndToEndOptimizationAndSimulation) {
  const test::TemporaryFile conf("cli_e2e.conf",
                                 "topology = grid:2x2\n"
                                 "targets = 0.4,0.2,0.2,0.2\n"
                                 "alpha = 1\nbeta = 0.001\n"
                                 "iterations = 150\nseed = 3\n"
                                 "simulate = 5000\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), 0) << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("transition matrix"), std::string::npos);
  EXPECT_NE(text.find("validation simulation"), std::string::npos);
  EXPECT_NE(text.find("delta_C"), std::string::npos);
}

TEST(RunCli, BasicAlgorithmSelectable) {
  const test::TemporaryFile conf("cli_basic.conf",
                                 "topology = grid:2x2\n"
                                 "algorithm = basic\n"
                                 "iterations = 50\nstep = 1e-4\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("algorithm: basic"), std::string::npos);
}

TEST(RunCli, BadAlgorithmReported) {
  const test::TemporaryFile conf("cli_bad.conf",
                                 "topology = grid:2x2\n"
                                 "algorithm = magic\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find("algorithm"), std::string::npos);
}

TEST(RunCli, ReducibleLoadedScheduleIsNumericalFailure) {
  // An identity schedule is a valid row-stochastic matrix but a fully
  // reducible chain: every PoI is absorbing, so the stationary analysis
  // fails. The audit path must report a structured numerical failure (exit
  // 3), not crash or emit NaN metrics.
  const test::TemporaryFile sched("cli_reducible_schedule.txt",
                                  "mocos-schedule v1\npois 4\n"
                                  "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n");
  const test::TemporaryFile conf("cli_reducible.conf",
                                 "topology = grid:2x2\n"
                                 "load_schedule = " + sched.path() + "\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitNumericalFailure)
      << err.str();
  EXPECT_NE(err.str().find("error"), std::string::npos);
}


TEST(RunCli, MultiStartOnSupportRestrictedProblemIsBadConfig) {
  // Multi-start draws dense random starts; on a support-restricted problem
  // they would return transitions that no coverage entry prices, so the run
  // is refused instead.
  const test::TemporaryFile conf("cli_multistart_support.conf",
                                 "topology = city:36:3\n"
                                 "support_radius = 1.6\n"
                                 "algorithm = perturbed\n"
                                 "starts = 2\n"
                                 "iterations = 5\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find("starts"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("support_radius"), std::string::npos) << err.str();
}

TEST(RunCli, SpectralReportOptIn) {
  const test::TemporaryFile conf("cli_spectral.conf",
                                 "topology = grid:2x2\n"
                                 "iterations = 80\n"
                                 "report_spectral = true\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("SLEM"), std::string::npos);
  EXPECT_NE(out.str().find("Kemeny"), std::string::npos);
}

TEST(RunCli, SimulationReportsTailExposure) {
  const test::TemporaryFile conf("cli_tail.conf",
                                 "topology = grid:2x2\n"
                                 "iterations = 80\n"
                                 "simulate = 3000\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("p95 exposure"), std::string::npos);
  EXPECT_NE(out.str().find("max exposure"), std::string::npos);
}


TEST(RunCli, SaveThenLoadSchedule) {
  const test::TemporaryFile sched("cli_saved_schedule.txt");
  const test::TemporaryFile save_conf("cli_save.conf",
                                      "topology = grid:2x2\n"
                                      "iterations = 100\nseed = 5\n"
                                      "save_schedule = " + sched.path() + "\n");
  std::ostringstream out1, err1;
  ASSERT_EQ(run_cli({save_conf.path()}, out1, err1), 0) << err1.str();
  EXPECT_NE(out1.str().find("schedule saved"), std::string::npos);

  const test::TemporaryFile load_conf("cli_load.conf",
                                      "topology = grid:2x2\n"
                                      "load_schedule = " + sched.path() + "\n");
  std::ostringstream out2, err2;
  ASSERT_EQ(run_cli({load_conf.path()}, out2, err2), 0) << err2.str();
  EXPECT_NE(out2.str().find("evaluating saved schedule"), std::string::npos);
  EXPECT_NE(out2.str().find("delta_C"), std::string::npos);
}

TEST(RunCli, MissingScheduleFileIsBadConfig) {
  // An unreadable schedule named by load_schedule is a configuration
  // problem, same exit code as an unreadable config file.
  const test::TemporaryFile conf("cli_missing_sched.conf",
                                 "topology = grid:2x2\n"
                                 "load_schedule = /nonexistent/s.txt\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find("/nonexistent/s.txt"), std::string::npos);
}

TEST(RunCli, LoadedScheduleMustMatchTopology) {
  const test::TemporaryFile sched("cli_mismatch_schedule.txt",
                                  "mocos-schedule v1\npois 2\n0.5 0.5\n"
                                  "0.5 0.5\n");
  const test::TemporaryFile conf("cli_mismatch.conf",
                                 "topology = grid:2x2\n"
                                 "load_schedule = " + sched.path() + "\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig);
  EXPECT_NE(err.str().find("does not match"), std::string::npos);
}


TEST(RunCli, FrontierMode) {
  const test::TemporaryFile conf("cli_frontier.conf",
                                 "topology = grid:2x2\n"
                                 "mode = frontier\n"
                                 "frontier_points = 2\n"
                                 "iterations = 100\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("trade-off frontier"), std::string::npos);
  EXPECT_NE(out.str().find("E-bar"), std::string::npos);
}

}  // namespace
}  // namespace mocos::cli
