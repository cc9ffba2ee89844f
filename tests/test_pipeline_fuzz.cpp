// Randomized whole-pipeline property tests: random topologies, physics and
// weights; every stage of the library must uphold its invariants. These are
// the "does anything break off the happy path" sweeps complementing the
// per-module unit suites.

#include <gtest/gtest.h>

#include <cmath>

#include "src/cost/gradient.hpp"
#include "src/core/optimizer.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/random_topology.hpp"
#include "src/markov/ergodicity.hpp"
#include "src/markov/spectral.hpp"
#include "src/sim/simulator.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

/// Random valid problem: random PoI cloud, random positive physics, random
/// weights. Deterministic per seed.
core::Problem random_problem(std::uint64_t seed) {
  util::Rng rng(seed);
  geometry::RandomTopologyConfig topo_cfg;
  topo_cfg.num_pois = 3 + rng.index(5);  // 3..7 PoIs
  topo_cfg.extent = 10.0;
  topo_cfg.min_separation = 1.0;
  geometry::Topology topo = geometry::random_topology(topo_cfg, rng);

  core::Physics physics;
  physics.speed = rng.uniform(0.5, 3.0);
  physics.pause = rng.uniform(0.2, 2.0);
  physics.sensing_radius =
      std::min(0.45, 0.4 * topo.min_separation() / 2.0 + 0.01);

  core::Weights w;
  w.alpha = rng.uniform() < 0.8 ? rng.uniform(0.1, 2.0) : 0.0;
  w.beta = rng.uniform() < 0.8 ? rng.uniform(1e-5, 1.0) : 0.0;
  w.epsilon = 1e-4;
  if (rng.uniform() < 0.3) w.energy_gamma = rng.uniform(0.1, 5.0);
  if (rng.uniform() < 0.3) w.entropy_weight = rng.uniform(0.01, 0.3);
  return core::Problem(std::move(topo), physics, w);
}

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, CostAndMetricsAreFiniteAndConsistent) {
  const auto problem = random_problem(GetParam());
  const auto cost = problem.make_cost();
  util::Rng rng(GetParam() ^ 0xabcULL);
  for (int t = 0; t < 3; ++t) {
    const auto p = test::random_positive_chain(problem.num_pois(), rng);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const double u = cost.value(chain);
    EXPECT_TRUE(std::isfinite(u)) << "seed " << GetParam();
    const auto metrics = problem.metrics_of(p);
    EXPECT_TRUE(std::isfinite(metrics.delta_c));
    EXPECT_GT(metrics.e_bar, 0.0);
    double share_sum = 0.0;
    for (double c : metrics.c_share) {
      EXPECT_GT(c, 0.0);
      share_sum += c;
    }
    EXPECT_LE(share_sum, 1.0 + 1e-9);
  }
}

TEST_P(PipelineFuzz, GradientMatchesFiniteDifference) {
  const auto problem = random_problem(GetParam());
  const auto cost = problem.make_cost();
  const std::size_t n = problem.num_pois();
  util::Rng rng(GetParam() ^ 0xdefULL);
  const auto p = test::random_positive_chain(n, rng);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto v = test::random_direction(n, rng);
  const auto grad = cost::cost_gradient(cost, chain);
  const double analytic = linalg::frobenius_dot(grad, v);
  const double h = 1e-7;
  linalg::Matrix plus(n, n), minus(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      plus(i, j) = p(i, j) + h * v(i, j);
      minus(i, j) = p(i, j) - h * v(i, j);
    }
  const double fd = (cost.value(markov::TransitionMatrix(plus)) -
                     cost.value(markov::TransitionMatrix(minus))) /
                    (2.0 * h);
  const double scale = std::max({std::abs(analytic), std::abs(fd), 1.0});
  EXPECT_NEAR(analytic, fd, 2e-4 * scale) << "seed " << GetParam();
}

TEST_P(PipelineFuzz, ShortOptimizationImprovesAndStaysFeasible) {
  const auto problem = random_problem(GetParam());
  core::OptimizerOptions opts;
  opts.max_iterations = 60;
  opts.seed = GetParam();
  opts.keep_trace = false;
  const auto start = markov::TransitionMatrix::uniform(problem.num_pois());
  const double u0 = problem.make_cost().value(start);
  const auto outcome = core::CoverageOptimizer(problem, opts).run();
  EXPECT_LE(outcome.penalized_cost, u0 + 1e-9);
  EXPECT_TRUE(markov::is_ergodic(outcome.p));
  EXPECT_GT(outcome.p.min_entry(), 0.0);
  // Spectral quantities stay sane on the optimized chain.
  EXPECT_LT(markov::slem(outcome.p), 1.0);
}

TEST_P(PipelineFuzz, SimulationAgreesWithAnalyticShares) {
  const auto problem = random_problem(GetParam());
  util::Rng rng(GetParam() ^ 0x123ULL);
  const auto p = test::random_positive_chain(problem.num_pois(), rng, 0.05);
  const auto analytic = problem.metrics_of(p);
  sim::SimulationConfig cfg;
  cfg.num_transitions = 60000;
  sim::MarkovCoverageSimulator sim(problem.model(), cfg);
  const auto res = sim.run(p, rng);
  for (std::size_t i = 0; i < problem.num_pois(); ++i)
    EXPECT_NEAR(res.coverage_share[i], analytic.c_share[i],
                0.03 * analytic.c_share[i] + 0.005)
        << "seed " << GetParam() << " PoI " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mocos
