#include "src/sensing/travel_model.hpp"
#include "src/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/geometry/paper_topologies.hpp"
#include "src/sim/exposure_tracker.hpp"
#include "tests/helpers.hpp"

namespace mocos::sim {
namespace {

TEST(ExposureTracker, MeanOfIntervals) {
  ExposureTracker t(2);
  t.on_departure(0, 1.0);
  t.on_arrival(0, 4.0);  // interval 3
  t.on_departure(0, 5.0);
  t.on_arrival(0, 10.0);  // interval 5
  EXPECT_EQ(t.interval_count(0), 2u);
  EXPECT_DOUBLE_EQ(t.mean_exposure(0), 4.0);
  EXPECT_DOUBLE_EQ(t.mean_exposure(1), 0.0);
}

TEST(ExposureTracker, ArrivalWithoutOpenIntervalIgnored) {
  ExposureTracker t(1);
  t.on_arrival(0, 3.0);
  EXPECT_EQ(t.interval_count(0), 0u);
}

TEST(ExposureTracker, DoubleDepartureThrows) {
  ExposureTracker t(1);
  t.on_departure(0, 1.0);
  EXPECT_THROW(t.on_departure(0, 2.0), std::logic_error);
}

TEST(ExposureTracker, BackwardsTimeThrows) {
  ExposureTracker t(1);
  t.on_departure(0, 5.0);
  EXPECT_THROW(t.on_arrival(0, 4.0), std::logic_error);
}

TEST(ExposureTracker, RejectsBadIndices) {
  EXPECT_THROW(ExposureTracker(0), std::invalid_argument);
  ExposureTracker t(2);
  EXPECT_THROW(t.on_departure(2, 0.0), std::out_of_range);
  EXPECT_THROW(t.on_arrival(2, 0.0), std::out_of_range);
  EXPECT_THROW(t.mean_exposure(2), std::out_of_range);
}

sensing::TravelModel model1() {
  return sensing::TravelModel(geometry::paper_topology(1), 1.0, 1.0, 0.25);
}

TEST(Simulator, VisitFractionMatchesStationary) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 200000;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(10);
  const auto p = test::random_positive_chain(4, rng);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto res = sim.run(p, rng);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(res.visit_fraction[i], chain.pi[i], 0.01);
}

TEST(Simulator, TotalTimeIsSumOfDurations) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 1000;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(11);
  const auto res = sim.run(markov::TransitionMatrix::uniform(4), rng);
  EXPECT_EQ(res.transitions, 1000u);
  // Every transition lasts at least the pause (1.0).
  EXPECT_GE(res.total_time, 1000.0);
}

TEST(Simulator, CoverageSharesSumBelowOne) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 50000;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(12);
  const auto res = sim.run(markov::TransitionMatrix::uniform(4), rng);
  double s = 0.0;
  for (double x : res.coverage_share) {
    EXPECT_GT(x, 0.0);
    s += x;
  }
  EXPECT_LT(s, 1.0);
}

TEST(Simulator, DeterministicChainHasExactExposure) {
  // 2 PoIs with p = [[0,1],[1,0]]: the sensor alternates; every exposure
  // interval is exactly 1 transition.
  auto topo = geometry::make_grid("pair", 1, 2, geometry::uniform_targets(2));
  sensing::TravelModel model(topo, 1.0, 1.0, 0.25);
  SimulationConfig cfg;
  cfg.num_transitions = 1000;
  cfg.burn_in = 0;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(13);
  const auto p = markov::TransitionMatrix(
      linalg::Matrix{{0.0, 1.0}, {1.0, 0.0}});
  const auto res = sim.run(p, rng);
  EXPECT_NEAR(res.exposure_steps[0], 1.0, 1e-12);
  EXPECT_NEAR(res.exposure_steps[1], 1.0, 1e-12);
  // Wall-clock exposure = travel + pause + travel = 1 + 1 + 1 = 3.
  EXPECT_NEAR(res.exposure_time[0], 3.0, 1e-9);
}

TEST(Simulator, CoverageSplitsEvenlyForAlternatingPair) {
  auto topo = geometry::make_grid("pair", 1, 2, geometry::uniform_targets(2));
  sensing::TravelModel model(topo, 1.0, 1.0, 0.25);
  SimulationConfig cfg;
  cfg.num_transitions = 1000;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(14);
  const auto p = markov::TransitionMatrix(
      linalg::Matrix{{0.0, 1.0}, {1.0, 0.0}});
  const auto res = sim.run(p, rng);
  EXPECT_NEAR(res.coverage_share[0], res.coverage_share[1], 1e-3);
  // Each transition: 1 travel + 1 pause; only the pause covers -> 1/2.
  EXPECT_NEAR(res.coverage_share[0] + res.coverage_share[1], 0.5, 1e-3);
}

TEST(Simulator, RejectsBadConfig) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 0;
  EXPECT_THROW(MarkovCoverageSimulator(model, cfg), std::invalid_argument);
  SimulationConfig cfg2;
  cfg2.start_poi = 9;
  EXPECT_THROW(MarkovCoverageSimulator(model, cfg2), std::invalid_argument);
}

TEST(Simulator, RejectsMismatchedMatrix) {
  const auto model = model1();
  MarkovCoverageSimulator sim(model, {});
  util::Rng rng(15);
  EXPECT_THROW(sim.run(markov::TransitionMatrix::uniform(3), rng),
               std::invalid_argument);
}

TEST(Simulator, ReproducibleWithSameSeed) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 5000;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng1(77), rng2(77);
  const auto p = markov::TransitionMatrix::uniform(4);
  const auto a = sim.run(p, rng1);
  const auto b = sim.run(p, rng2);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.coverage_time, b.coverage_time);
}

TEST(SimulationResult, MetricFormulas) {
  SimulationResult r;
  r.total_time = 100.0;
  r.transitions = 50;
  r.coverage_time = {30.0, 20.0};
  r.exposure_steps = {3.0, 4.0};
  // delta_c = sum ((C_i - phi_i T)/N)^2
  const double g0 = (30.0 - 0.5 * 100.0) / 50.0;
  const double g1 = (20.0 - 0.5 * 100.0) / 50.0;
  EXPECT_NEAR(r.delta_c({0.5, 0.5}), g0 * g0 + g1 * g1, 1e-15);
  EXPECT_NEAR(r.e_bar(), 5.0, 1e-15);
  EXPECT_NEAR(r.cost(1.0, 1.0, {0.5, 0.5}),
              0.5 * (g0 * g0 + g1 * g1) + 0.5 * 25.0, 1e-12);
  EXPECT_THROW(r.delta_c({1.0}), std::invalid_argument);
}


TEST(Simulator, ExposurePercentilesTrackTail) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 50000;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(21);
  const auto res = sim.run(markov::TransitionMatrix::uniform(4), rng);
  ASSERT_EQ(res.exposure_steps_p95.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(res.exposure_steps_p95[i], res.exposure_steps[i]);
    EXPECT_GE(res.exposure_steps_max[i], res.exposure_steps_p95[i]);
    // Uniform chain: geometric(3/4) return -> p95 around ln(0.05)/ln(0.25).
    EXPECT_LT(res.exposure_steps_p95[i], 15.0);
  }
}

TEST(Simulator, PercentileTrackingCanBeDisabled) {
  const auto model = model1();
  SimulationConfig cfg;
  cfg.num_transitions = 1000;
  cfg.track_exposure_percentiles = false;
  MarkovCoverageSimulator sim(model, cfg);
  util::Rng rng(22);
  const auto res = sim.run(markov::TransitionMatrix::uniform(4), rng);
  EXPECT_TRUE(res.exposure_steps_p95.empty());
  EXPECT_TRUE(res.exposure_steps_max.empty());
}

TEST(ExposureTracker, PercentilesRequireSampling) {
  ExposureTracker plain(2);
  EXPECT_THROW(plain.exposure_percentile(0, 95.0), std::logic_error);
  ExposureTracker sampled(2, true);
  sampled.on_departure(0, 0.0);
  sampled.on_arrival(0, 2.0);
  sampled.on_departure(0, 3.0);
  sampled.on_arrival(0, 9.0);
  EXPECT_DOUBLE_EQ(sampled.exposure_percentile(0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(sampled.exposure_percentile(0, 100.0), 6.0);
  EXPECT_DOUBLE_EQ(sampled.max_exposure(0), 6.0);
  EXPECT_DOUBLE_EQ(sampled.exposure_percentile(1, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(sampled.max_exposure(1), 0.0);
}

}  // namespace
}  // namespace mocos::sim
