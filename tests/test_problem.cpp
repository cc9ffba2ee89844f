#include "src/core/problem.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/core/optimizer.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/markov/stationary.hpp"
#include "tests/helpers.hpp"

namespace mocos::core {
namespace {

TEST(Problem, BuildsWithDefaults) {
  Problem p(geometry::paper_topology(1), Physics{}, Weights{});
  EXPECT_EQ(p.num_pois(), 4u);
  EXPECT_EQ(p.targets().size(), 4u);
  EXPECT_DOUBLE_EQ(p.physics().speed, 1.0);
}

TEST(Problem, CostContainsExpectedTerms) {
  Weights w;
  w.alpha = 1.0;
  w.beta = 1.0;
  Problem p(geometry::paper_topology(1), Physics{}, w);
  const auto cost = p.make_cost();
  EXPECT_EQ(cost.num_terms(), 3u);  // coverage + exposure + barrier
}

TEST(Problem, ZeroWeightsDropTerms) {
  Weights w;
  w.alpha = 0.0;
  w.beta = 1.0;
  Problem p(geometry::paper_topology(1), Physics{}, w);
  EXPECT_EQ(p.make_cost().num_terms(), 2u);  // exposure + barrier
}

TEST(Problem, ExtensionTermsIncluded) {
  Weights w;
  w.energy_gamma = 1.0;
  w.entropy_weight = 0.5;
  Problem p(geometry::paper_topology(1), Physics{}, w);
  EXPECT_EQ(p.make_cost().num_terms(), 5u);
}

TEST(Problem, MetricsAndReportCostConsistent) {
  Weights w;
  w.alpha = 2.0;
  w.beta = 3.0;
  Problem p(geometry::paper_topology(3), Physics{}, w);
  const auto m = p.metrics_of(markov::TransitionMatrix::uniform(4));
  EXPECT_NEAR(p.report_cost(markov::TransitionMatrix::uniform(4)),
              0.5 * 2.0 * m.delta_c + 0.5 * 3.0 * m.e_bar * m.e_bar, 1e-12);
}

TEST(Problem, CostOutlivesProblem) {
  // The composite cost must own copies of the tensors it uses.
  cost::CompositeCost cost = [] {
    Problem p(geometry::paper_topology(1), Physics{}, Weights{});
    return p.make_cost();
  }();
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EXPECT_TRUE(std::isfinite(cost.value(chain)));
}

TEST(Problem, PerPoiWeightsOverrideScalars) {
  // Scalar alpha=0 but a per-PoI alpha vector enables the coverage term.
  Weights w;
  w.alpha = 0.0;
  w.beta = 0.0;
  w.alpha_per_poi = {1.0, 0.0, 0.0, 0.0};
  Problem p(geometry::paper_topology(1), Physics{}, w);
  EXPECT_EQ(p.make_cost().num_terms(), 2u);  // coverage + barrier
}

TEST(Problem, PerPoiWeightsMatchScalarWhenUniform) {
  Weights scalar;
  scalar.alpha = 2.0;
  scalar.beta = 0.5;
  Weights vec = scalar;
  vec.alpha_per_poi = std::vector<double>(4, 2.0);
  vec.beta_per_poi = std::vector<double>(4, 0.5);
  Problem ps(geometry::paper_topology(1), Physics{}, scalar);
  Problem pv(geometry::paper_topology(1), Physics{}, vec);
  util::Rng rng(77);
  const auto m = test::random_positive_chain(4, rng);
  EXPECT_NEAR(ps.make_cost().value(m), pv.make_cost().value(m), 1e-14);
}

TEST(Problem, PerPoiWeightsValidated) {
  Weights bad;
  bad.alpha_per_poi = {1.0, 1.0};  // wrong size for 4 PoIs
  Problem p(geometry::paper_topology(1), Physics{}, bad);
  EXPECT_THROW(p.make_cost(), std::invalid_argument);
  Weights neg;
  neg.beta_per_poi = {1.0, -1.0, 1.0, 1.0};
  Problem pn(geometry::paper_topology(1), Physics{}, neg);
  EXPECT_THROW(pn.make_cost(), std::invalid_argument);
}

TEST(Problem, EventRatesEnableInformationTerm) {
  Weights w;
  w.alpha = 0.0;
  w.beta = 0.0;
  w.event_rates = {1.0, 2.0, 3.0, 4.0};
  Problem p(geometry::paper_topology(1), Physics{}, w);
  EXPECT_EQ(p.make_cost().num_terms(), 2u);  // information + barrier
  // The information term is negative at any chain (it rewards capture).
  EXPECT_LT(p.make_cost().value(markov::TransitionMatrix::uniform(4)), 0.0);
}

TEST(Problem, PenalizedCostExceedsReportCostInsideGates) {
  // U_eps = U + barrier >= U; away from the gates they coincide.
  Weights w;
  Problem p(geometry::paper_topology(1), Physics{}, w);
  const auto cost = p.make_cost();
  const auto u = markov::TransitionMatrix::uniform(4);
  const auto chain = test::unwrap(markov::try_analyze_chain(u));
  EXPECT_NEAR(cost.value(chain), p.report_cost(u), 1e-9);
}

// --- Boundary topologies through the full pipeline -------------------------

TEST(Problem, TwoPoiBoundaryTopologyOptimizesCleanly) {
  // The smallest legal instance: 2 PoIs, 2x2 transition matrix. The whole
  // pipeline — tensors, cost terms, descent, metrics — must work at this
  // floor, not just at the paper's 4..6-PoI topologies.
  geometry::Topology topo("pair", {{0.0, 0.0}, {1.0, 0.0}}, {0.7, 0.3});
  Weights w;
  w.alpha = 1.0;
  w.beta = 0.5;
  Problem problem(std::move(topo), Physics{}, w);
  ASSERT_EQ(problem.num_pois(), 2u);

  const auto m = problem.metrics_of(markov::TransitionMatrix::uniform(2));
  EXPECT_TRUE(std::isfinite(m.delta_c));
  EXPECT_TRUE(std::isfinite(m.e_bar));

  OptimizerOptions opts;
  opts.algorithm = Algorithm::kAdaptive;
  opts.max_iterations = 60;
  const auto outcome = CoverageOptimizer(problem, opts).run();
  EXPECT_TRUE(std::isfinite(outcome.penalized_cost));
  EXPECT_TRUE(outcome.recovery.empty());
  // A lopsided 0.7/0.3 target pulls coverage toward PoI 0.
  const auto pi = test::unwrap(markov::try_stationary_distribution(outcome.p));
  EXPECT_GT(pi[0], pi[1]);
}

TEST(Problem, OnePoiTopologyIsAStructuredConfigError) {
  // A single PoI admits no Markov schedule (TransitionMatrix needs n >= 2),
  // so the degenerate instance is rejected at the earliest layer — topology
  // construction — with a structured invalid_argument, not a downstream
  // crash or a bogus 1x1 chain.
  EXPECT_THROW(geometry::Topology("solo", {{0.0, 0.0}}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(markov::TransitionMatrix::uniform(1), std::invalid_argument);
  EXPECT_THROW(markov::TransitionMatrix(linalg::Matrix{{1.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mocos::core
