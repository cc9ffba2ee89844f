#include "src/sensing/travel_model.hpp"
#include "src/cost/coverage_term.hpp"

#include <gtest/gtest.h>

#include "src/cost/metrics.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "tests/coverage_reference.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

sensing::TravelModel model3() {
  return sensing::TravelModel(geometry::paper_topology(3), 1.0, 1.0, 0.25);
}

TEST(CoverageTerm, ZeroWhenCoverageMatchesTarget) {
  // Uniform targets on a symmetric 2x2 grid with the uniform chain give a
  // small but generally nonzero deviation; instead test the analytic zero:
  // targets equal to the achieved shares => g_i ≈ 0 by construction.
  sensing::TravelModel model(geometry::paper_topology(1), 1.0, 1.0, 0.25);
  sensing::CoverageTensors tensors(model);
  const auto p = markov::TransitionMatrix::uniform(4);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto shares = coverage_shares(chain, tensors);
  CoverageDeviationTerm term(tensors, shares, 1.0);
  // g_i uses per-transition scaling, so exact zero only when the shares are
  // plugged back in as targets.
  EXPECT_NEAR(term.value(chain), 0.0, 1e-16);
}

TEST(CoverageTerm, PositiveWhenOffTarget) {
  sensing::TravelModel model = model3();
  sensing::CoverageTensors tensors(model);
  CoverageDeviationTerm term(tensors, model.topology().targets(), 1.0);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EXPECT_GT(term.value(chain), 0.0);
}

TEST(CoverageTerm, ScalesLinearlyWithAlpha) {
  sensing::TravelModel model = model3();
  sensing::CoverageTensors tensors(model);
  const auto targets = model.topology().targets();
  CoverageDeviationTerm t1(tensors, targets, 1.0);
  CoverageDeviationTerm t5(tensors, targets, 5.0);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EXPECT_NEAR(t5.value(chain), 5.0 * t1.value(chain), 1e-14);
}

TEST(CoverageTerm, DiscrepanciesMatchDefinition) {
  sensing::TravelModel model = model3();
  sensing::CoverageTensors tensors(model);
  const auto targets = model.topology().targets();
  CoverageDeviationTerm term(tensors, targets, 1.0);
  const auto p = markov::TransitionMatrix::uniform(4);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const test::DenseCoverage dense(model);
  const auto g = term.discrepancies(chain);
  for (std::size_t i = 0; i < 4; ++i) {
    double expect = 0.0;
    const linalg::Matrix b = dense.kernel(i, targets[i]);
    for (std::size_t j = 0; j < 4; ++j)
      for (std::size_t k = 0; k < 4; ++k)
        expect += chain.pi[j] * chain.p(j, k) * b(j, k);
    EXPECT_NEAR(g[i], expect, 1e-14);
  }
}

TEST(CoverageTerm, ValueIsHalfWeightedSquares) {
  sensing::TravelModel model = model3();
  sensing::CoverageTensors tensors(model);
  CoverageDeviationTerm term(tensors, model.topology().targets(), 2.0);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto g = term.discrepancies(chain);
  double expect = 0.0;
  for (double gi : g) expect += 0.5 * 2.0 * gi * gi;
  EXPECT_NEAR(term.value(chain), expect, 1e-15);
}

TEST(CoverageTerm, PartialsOnlyTouchPiAndP) {
  sensing::TravelModel model = model3();
  sensing::CoverageTensors tensors(model);
  CoverageDeviationTerm term(tensors, model.topology().targets(), 1.0);
  util::Rng rng(9);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  Partials p(4);
  term.accumulate_partials(chain, p);
  EXPECT_DOUBLE_EQ(linalg::frobenius_dot(p.du_dz, p.du_dz), 0.0);
  double pi_mag = 0.0;
  for (double x : p.du_dpi) pi_mag += x * x;
  EXPECT_GT(pi_mag, 0.0);
}

TEST(CoverageTerm, RejectsBadWeights) {
  sensing::TravelModel model = model3();
  sensing::CoverageTensors tensors(model);
  EXPECT_THROW(CoverageDeviationTerm(tensors, model.topology().targets(),
                                     std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      CoverageDeviationTerm(tensors, model.topology().targets(), -1.0),
      std::invalid_argument);
  EXPECT_THROW(CoverageDeviationTerm(tensors, {0.5, 0.5}, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace mocos::cost
