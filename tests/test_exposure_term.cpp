#include "src/cost/exposure_term.hpp"

#include <gtest/gtest.h>

#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

TEST(ExposureTerm, TwoStateClosedForm) {
  // chain2(a,b): leaving 0 always goes to 1, return time R_10 = 1/b, so
  // E_0 = 1/b; symmetrically E_1 = 1/a.
  const double a = 0.3, b = 0.2;
  const auto chain =
      test::unwrap(markov::try_analyze_chain(test::chain2(a, b)));
  const auto e = ExposureTerm::compute_mean_exposures(chain);
  EXPECT_NEAR(e[0], 1.0 / b, 1e-10);
  EXPECT_NEAR(e[1], 1.0 / a, 1e-10);
}

TEST(ExposureTerm, MatchesDirectFormulaFromR) {
  // Ē_i = Σ_{j≠i} p_ij R_ji / (1 - p_ii) with R from the chain analysis.
  util::Rng rng(71);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const auto e = ExposureTerm::compute_mean_exposures(chain);
    for (std::size_t i = 0; i < 5; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < 5; ++j)
        if (j != i) s += p(i, j) * chain.r(j, i);
      EXPECT_NEAR(e[i], s / (1.0 - p(i, i)), 1e-9);
    }
  }
}

TEST(ExposureTerm, ExposureAtLeastOne) {
  // Every return takes at least one transition.
  util::Rng rng(72);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(6, rng)));
  for (double e : ExposureTerm::compute_mean_exposures(chain))
    EXPECT_GE(e, 1.0 - 1e-9);
}

TEST(ExposureTerm, ValueIsHalfWeightedSquares) {
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  ExposureTerm term(3, 2.0);
  const auto e = term.mean_exposures(chain);
  double expect = 0.0;
  for (double x : e) expect += 0.5 * 2.0 * x * x;
  EXPECT_NEAR(term.value(chain), expect, 1e-12);
}

TEST(ExposureTerm, HigherStayProbabilityRaisesOthersExposure) {
  // If the sensor lingers at state 0, exposures of other states grow.
  const auto lazy = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix(linalg::Matrix{
          {0.90, 0.05, 0.05}, {0.1, 0.6, 0.3}, {0.4, 0.4, 0.2}})));
  const auto busy = test::unwrap(markov::try_analyze_chain(test::chain3()));
  const auto e_lazy = ExposureTerm::compute_mean_exposures(lazy);
  const auto e_busy = ExposureTerm::compute_mean_exposures(busy);
  EXPECT_GT(e_lazy[1], e_busy[1]);
  EXPECT_GT(e_lazy[2], e_busy[2]);
}

TEST(ExposureTerm, UniformChainSymmetry) {
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(5)));
  const auto e = ExposureTerm::compute_mean_exposures(chain);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_NEAR(e[i], e[0], 1e-10);
}

TEST(ExposureTerm, PartialsPopulateAllThreeChannels) {
  util::Rng rng(73);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  ExposureTerm term(4, 1.0);
  Partials p(4);
  term.accumulate_partials(chain, p);
  double pi_mag = 0.0;
  for (double x : p.du_dpi) pi_mag += x * x;
  EXPECT_GT(pi_mag, 0.0);
  EXPECT_GT(linalg::frobenius_dot(p.du_dz, p.du_dz), 0.0);
  EXPECT_GT(linalg::frobenius_dot(p.du_dp, p.du_dp), 0.0);
}

TEST(ExposureTerm, RejectsBadInput) {
  EXPECT_THROW(ExposureTerm(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(ExposureTerm(3, -1.0), std::invalid_argument);
  ExposureTerm term(4, 1.0);
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EXPECT_THROW(term.value(chain), std::invalid_argument);
}

}  // namespace
}  // namespace mocos::cost
