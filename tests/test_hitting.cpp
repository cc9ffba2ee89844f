#include "src/markov/hitting.hpp"

#include <gtest/gtest.h>

#include "src/markov/fundamental.hpp"
#include "src/sim/simulator.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(HitBefore, BoundaryConditions) {
  const auto h = hit_before(test::chain3(), 1, 2);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
  EXPECT_DOUBLE_EQ(h[2], 0.0);
  EXPECT_GT(h[0], 0.0);
  EXPECT_LT(h[0], 1.0);
}

TEST(HitBefore, SatisfiesHarmonicEquation) {
  util::Rng rng(41);
  const auto p = test::random_positive_chain(5, rng);
  const auto h = hit_before(p, 0, 4);
  for (std::size_t i = 1; i < 4; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 5; ++j) expect += p(i, j) * h[j];
    EXPECT_NEAR(h[i], expect, 1e-10) << "state " << i;
  }
}

TEST(HitBefore, ComplementaryProbabilitiesSumToOne) {
  util::Rng rng(42);
  const auto p = test::random_positive_chain(4, rng);
  const auto h01 = hit_before(p, 0, 1);
  const auto h10 = hit_before(p, 1, 0);
  for (std::size_t i = 2; i < 4; ++i)
    EXPECT_NEAR(h01[i] + h10[i], 1.0, 1e-10);
}

TEST(HitBefore, SymmetricRandomWalkOnLine) {
  // Gambler's ruin on 3 states {0,1,2} with p=1/2 left/right from state 1:
  // P(hit 2 before 0 | start 1) = 1/2.
  linalg::Matrix m{{0.5, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.5}};
  const auto h = hit_before(TransitionMatrix(m), 2, 0);
  EXPECT_NEAR(h[1], 0.5, 1e-12);
}

TEST(HitBefore, ValidatesArguments) {
  const auto p = test::chain3();
  EXPECT_THROW(hit_before(p, 0, 0), std::invalid_argument);
  EXPECT_THROW(hit_before(p, 3, 0), std::out_of_range);
}

TEST(ExpectedVisits, StartAtTransientCountsItself) {
  util::Rng rng(43);
  const auto p = test::random_positive_chain(4, rng);
  const auto v = expected_visits_before(p, 1, 3);
  EXPECT_GE(v[1], 1.0);           // the time-0 visit
  EXPECT_DOUBLE_EQ(v[3], 0.0);    // absorbed immediately
  EXPECT_GT(v[0], 0.0);
}

TEST(ExpectedVisits, OneStepRecurrence) {
  // v_i = [i == a] + Σ_{j != b} p_ij v_j.
  util::Rng rng(44);
  const auto p = test::random_positive_chain(5, rng);
  const auto v = expected_visits_before(p, 2, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    double expect = (i == 2) ? 1.0 : 0.0;
    for (std::size_t j = 0; j < 5; ++j)
      if (j != 4) expect += p(i, j) * v[j];
    EXPECT_NEAR(v[i], expect, 1e-9) << "state " << i;
  }
}

TEST(ExpectedVisits, ValidatesArguments) {
  const auto p = test::chain3();
  EXPECT_THROW(expected_visits_before(p, 1, 1), std::invalid_argument);
  EXPECT_THROW(expected_visits_before(p, 5, 0), std::out_of_range);
}

TEST(PassageVariance, GeometricClosedForm) {
  // chain2(a, b): passage 1 -> 0 is geometric(b): mean 1/b,
  // variance (1-b)/b^2.
  const double a = 0.4, b = 0.25;
  const auto var = passage_time_variance(test::chain2(a, b), 0);
  EXPECT_NEAR(var[1], (1.0 - b) / (b * b), 1e-9);
}

TEST(PassageVariance, MeansMatchFirstPassageMatrix) {
  // Internal consistency: the mean used by the variance computation is R.
  util::Rng rng(45);
  const auto p = test::random_positive_chain(4, rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  for (std::size_t t = 0; t < 4; ++t) {
    const auto var = passage_time_variance(p, t);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(var[i], -1e-9) << "variance must be non-negative";
    }
  }
}

TEST(PassageVariance, MatchesSimulatedReturnVariance) {
  // Simulate return times to state 0 and compare moments.
  const auto p = test::chain3();
  const auto var = passage_time_variance(p, 0);
  util::Rng rng(46);
  // Mean return time from R: 1/pi_0. Simulate passages from state 1.
  std::size_t trials = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    std::size_t state = 1;
    double steps = 0.0;
    while (true) {
      state = rng.discrete(p.row(state));
      steps += 1.0;
      if (state == 0) break;
    }
    sum += steps;
    sum_sq += steps * steps;
  }
  const double n = static_cast<double>(trials);
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  const auto chain = test::unwrap(try_analyze_chain(p));
  EXPECT_NEAR(mean, chain.r(1, 0), 0.05 * chain.r(1, 0));
  EXPECT_NEAR(variance, var[1], 0.08 * var[1]);
}

TEST(PassageVariance, DeterministicCycleHasZeroVariance) {
  linalg::Matrix m{{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}};
  const auto var = passage_time_variance(TransitionMatrix(m), 0);
  for (double v : var) EXPECT_NEAR(v, 0.0, 1e-9);
}

}  // namespace
}  // namespace mocos::markov
