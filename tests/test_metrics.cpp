#include "src/sensing/travel_model.hpp"
#include "src/cost/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/cost/coverage_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

struct Fixture {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  explicit Fixture(int topo)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {}
};

TEST(Metrics, CoverageSharesSumBelowOne) {
  // Travel time between PoIs is not covered time, so shares sum to < 1,
  // and each share is positive for a positive chain.
  Fixture f(1);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto shares = coverage_shares(chain, f.tensors);
  double s = 0.0;
  for (double x : shares) {
    EXPECT_GT(x, 0.0);
    s += x;
  }
  EXPECT_LT(s, 1.0);
  EXPECT_GT(s, 0.3);  // pauses dominate for the small grid
}

TEST(Metrics, SymmetricTopologyUniformChainHasEqualShares) {
  Fixture f(1);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto shares = coverage_shares(chain, f.tensors);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NEAR(shares[i], shares[0], 1e-10);
}

TEST(Metrics, DeltaCMatchesCoverageTermDiscrepancies) {
  Fixture f(3);
  util::Rng rng(15);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  const auto m = compute_metrics(chain, f.tensors, f.model.topology().targets());
  CoverageDeviationTerm term(f.tensors, f.model.topology().targets(), 1.0);
  const auto g = term.discrepancies(chain);
  double expect = 0.0;
  for (double gi : g) expect += gi * gi;
  EXPECT_NEAR(m.delta_c, expect, 1e-14);
}

TEST(Metrics, EBarMatchesExposureNorm) {
  Fixture f(1);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto m = compute_metrics(chain, f.tensors, f.model.topology().targets());
  const auto e = ExposureTerm::compute_mean_exposures(chain);
  double ss = 0.0;
  for (double x : e) ss += x * x;
  EXPECT_NEAR(m.e_bar, std::sqrt(ss), 1e-12);
  ASSERT_EQ(m.exposure.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(m.exposure[i], e[i], 1e-14);
}

TEST(Metrics, CostEquation14) {
  Fixture f(1);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto m = compute_metrics(chain, f.tensors, f.model.topology().targets());
  EXPECT_NEAR(m.cost(2.0, 3.0),
              0.5 * 2.0 * m.delta_c + 0.5 * 3.0 * m.e_bar * m.e_bar, 1e-12);
  EXPECT_NEAR(m.cost(1.0, 0.0), 0.5 * m.delta_c, 1e-15);
}

TEST(Metrics, SizeMismatchThrows) {
  Fixture f(1);
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EXPECT_THROW(coverage_shares(chain, f.tensors), std::invalid_argument);
  const auto chain4 = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EXPECT_THROW(compute_metrics(chain4, f.tensors, {0.5, 0.5}),
               std::invalid_argument);
}

TEST(Metrics, TargetEqualSharesGiveZeroDeltaC) {
  Fixture f(1);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto shares = coverage_shares(chain, f.tensors);
  const auto m = compute_metrics(chain, f.tensors, shares);
  EXPECT_NEAR(m.delta_c, 0.0, 1e-18);
}

}  // namespace
}  // namespace mocos::cost
