#include "src/markov/stationary.hpp"

#include <gtest/gtest.h>

#include "src/linalg/lu.hpp"
#include "src/linalg/matrix.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(Stationary, TwoStateClosedForm) {
  // pi = (b, a) / (a + b) for chain2(a, b).
  const double a = 0.3, b = 0.2;
  const auto pi = test::unwrap(try_stationary_distribution(test::chain2(a, b)));
  EXPECT_NEAR(pi[0], b / (a + b), 1e-12);
  EXPECT_NEAR(pi[1], a / (a + b), 1e-12);
}

TEST(Stationary, UniformChainIsUniform) {
  const auto pi =
      test::unwrap(try_stationary_distribution(TransitionMatrix::uniform(5)));
  for (double x : pi) EXPECT_NEAR(x, 0.2, 1e-12);
}

TEST(Stationary, SatisfiesFixedPointEquation) {
  const TransitionMatrix p = test::chain3();
  const auto pi = test::unwrap(try_stationary_distribution(p));
  const auto pi_p = linalg::mul(pi, p.to_dense());
  EXPECT_TRUE(linalg::approx_equal(pi, pi_p, 1e-12));
}

TEST(Stationary, SumsToOneAndPositive) {
  util::Rng rng(21);
  for (int t = 0; t < 20; ++t) {
    const auto p = test::random_positive_chain(6, rng);
    const auto pi = test::unwrap(try_stationary_distribution(p));
    double s = 0.0;
    for (double x : pi) {
      EXPECT_GT(x, 0.0);
      s += x;
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Stationary, MatchesPowerIteration) {
  util::Rng rng(22);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto direct = test::unwrap(try_stationary_distribution(p));
    const auto power = stationary_power_iteration(p);
    EXPECT_TRUE(linalg::approx_equal(direct, power, 1e-9));
  }
}

// --- Degenerate chains through the guarded solver -------------------------

TEST(TryStationary, ErgodicChainMatchesThrowingSolver) {
  // Reference: the throwing one-shot linalg::solve of
  // (I - Pᵀ + 𝟙𝟙ᵀ) π = 𝟙, normalized.
  const auto p = test::chain3();
  linalg::Matrix b(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      b(i, j) = (i == j ? 1.0 : 0.0) - p(j, i) + 1.0;
  linalg::Vector ref = linalg::solve(b, linalg::Vector(3, 1.0));
  const double mass = ref[0] + ref[1] + ref[2];
  for (double& x : ref) x /= mass;
  const auto pi = try_stationary_distribution(p);
  ASSERT_TRUE(pi.ok());
  EXPECT_TRUE(linalg::approx_equal(*pi, ref, 1e-12));
}

TEST(TryStationary, FullyReducibleChainIsSingular) {
  // The identity chain: every state absorbing, stationary distribution not
  // unique, so the direct system (I - P^T + 11^T) is the all-ones matrix.
  const TransitionMatrix p(linalg::Matrix::identity(4));
  const auto pi = try_stationary_distribution(p);
  ASSERT_FALSE(pi.ok());
  EXPECT_EQ(pi.status().code(), util::StatusCode::kSingularMatrix);
}

TEST(TryStationary, TwoClassReducibleChainIsSingular) {
  // Two closed communicating classes {0,1} and {2,3}: the difference of the
  // per-class stationary vectors is in the null space of the direct system.
  const TransitionMatrix p(linalg::Matrix{{0.5, 0.5, 0.0, 0.0},
                                          {0.5, 0.5, 0.0, 0.0},
                                          {0.0, 0.0, 0.5, 0.5},
                                          {0.0, 0.0, 0.5, 0.5}});
  const auto pi = try_stationary_distribution(p);
  ASSERT_FALSE(pi.ok());
  // Depending on round-off the rank deficiency surfaces either as a pivot
  // underflow or as negative stationary mass — both are structured
  // numerical failures, never a bogus distribution.
  EXPECT_TRUE(util::is_numerical_failure(pi.status().code()))
      << pi.status().to_string();
  EXPECT_TRUE(pi.status().code() == util::StatusCode::kSingularMatrix ||
              pi.status().code() == util::StatusCode::kNotErgodic)
      << pi.status().to_string();
}

TEST(TryStationary, PeriodicChainSolvesDirectButFailsPowerIteration) {
  // Irreducible but periodic (period 2, bipartite {0,2} <-> {1}): the
  // stationary distribution exists and the direct solve finds it, while
  // power iteration oscillates forever and must report kNotErgodic instead
  // of silently returning a non-fixed-point.
  const TransitionMatrix p(linalg::Matrix{
      {0.0, 1.0, 0.0}, {0.5, 0.0, 0.5}, {0.0, 1.0, 0.0}});

  const auto direct = try_stationary_distribution(p);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR((*direct)[0], 0.25, 1e-12);
  EXPECT_NEAR((*direct)[1], 0.50, 1e-12);
  EXPECT_NEAR((*direct)[2], 0.25, 1e-12);

  const auto power =
      try_stationary_distribution(p, SolvePolicy::kPowerIteration);
  ASSERT_FALSE(power.ok());
  EXPECT_EQ(power.status().code(), util::StatusCode::kNotErgodic);
  EXPECT_NE(power.status().message().find("fixed point"), std::string::npos);
}

TEST(TryStationary, PowerIterationSolverAgreesOnErgodicChains) {
  util::Rng rng(23);
  for (int t = 0; t < 5; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto direct = try_stationary_distribution(p);
    const auto power =
        try_stationary_distribution(p, SolvePolicy::kPowerIteration);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(power.ok());
    EXPECT_TRUE(linalg::approx_equal(*direct, *power, 1e-9));
  }
}

class StationarySizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StationarySizeTest, FixedPointAcrossSizes) {
  util::Rng rng(100 + GetParam());
  const auto p = test::random_positive_chain(GetParam(), rng);
  const auto pi = test::unwrap(try_stationary_distribution(p));
  EXPECT_TRUE(
      linalg::approx_equal(pi, linalg::mul(pi, p.to_dense()), 1e-11));
}

INSTANTIATE_TEST_SUITE_P(Sizes, StationarySizeTest,
                         ::testing::Values(2, 3, 4, 5, 8, 12, 16));

}  // namespace
}  // namespace mocos::markov
