#include "src/multi/team_optimizer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/multi/team_simulator.hpp"
#include "src/sensing/routed_travel_model.hpp"
#include "tests/helpers.hpp"

namespace mocos::multi {
namespace {

TeamOptimizerOptions quick_options(std::size_t sensors, std::size_t rounds) {
  TeamOptimizerOptions o;
  o.num_sensors = sensors;
  o.rounds = rounds;
  o.per_sensor.max_iterations = 250;
  o.per_sensor.keep_trace = false;
  o.per_sensor.stall_limit = 100;
  return o;
}

TEST(TeamOptimizer, ValidatesOptions) {
  const auto problem = test::paper_problem(1, 1.0, 1e-3);
  EXPECT_THROW(optimize_team(problem, quick_options(0, 1)),
               std::invalid_argument);
  EXPECT_THROW(optimize_team(problem, quick_options(2, 0)),
               std::invalid_argument);
  auto bad_floor = quick_options(2, 1);
  bad_floor.residual_floor = 0.0;
  EXPECT_THROW(optimize_team(problem, bad_floor), std::invalid_argument);
}

TEST(TeamOptimizer, ProducesRequestedTeamSize) {
  const auto problem = test::paper_problem(1, 1.0, 1e-3);
  const auto team = optimize_team(problem, quick_options(3, 1));
  EXPECT_EQ(team.num_sensors(), 3u);
  EXPECT_EQ(team.num_pois(), 4u);
}

TEST(TeamOptimizer, TwoSensorsBeatOneOnGaps) {
  const auto problem = test::paper_problem(1, 1.0, 1e-3);
  const auto solo = optimize_team(problem, quick_options(1, 1));
  const auto duo = optimize_team(problem, quick_options(2, 2));

  TeamSimulationConfig cfg;
  cfg.transitions_per_sensor = 15000;
  util::Rng rng1(3), rng2(3);
  const auto res1 = TeamSimulator(cfg).run(solo, rng1);
  const auto res2 = TeamSimulator(cfg).run(duo, rng2);

  double total1 = 0.0, total2 = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    total1 += res1.covered_fraction[i];
    total2 += res2.covered_fraction[i];
  }
  EXPECT_GT(total2, total1);
  EXPECT_LT(res2.worst_gap(), res1.worst_gap());
}

TEST(TeamOptimizer, ResidualRoundsDiversifyChains) {
  const auto problem = test::paper_problem(2, 1.0, 0.0);
  const auto team = optimize_team(problem, quick_options(2, 2));
  // After residual rounds the two chains should not be (near-)identical.
  EXPECT_FALSE(linalg::approx_equal(team.chain(0).to_dense(),
                                    team.chain(1).to_dense(), 1e-3));
}

TEST(TeamOptimizer, ResidualRoundsRejectCustomMotionModels) {
  geometry::Topology topo("pair", {{0.0, 0.0}, {4.0, 0.0}}, {0.5, 0.5});
  core::Problem problem(
      std::make_unique<sensing::RoutedTravelModel>(
          topo, std::vector<geometry::Polygon>{}, 1.0, 1.0, 0.25),
      core::Weights{});
  EXPECT_THROW(optimize_team(problem, quick_options(2, 2)),
               std::invalid_argument);
  EXPECT_NO_THROW(optimize_team(problem, quick_options(2, 1)));
}

}  // namespace
}  // namespace mocos::multi
