#include "src/markov/passage_times.hpp"

#include <gtest/gtest.h>

#include "src/markov/fundamental.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(PassageTimes, TwoStateClosedForm) {
  // chain2(a, b): R_01 = 1/a, R_10 = 1/b, R_ii = 1/pi_i.
  const double a = 0.25, b = 0.4;
  const auto chain = test::unwrap(try_analyze_chain(test::chain2(a, b)));
  EXPECT_NEAR(chain.r(0, 1), 1.0 / a, 1e-10);
  EXPECT_NEAR(chain.r(1, 0), 1.0 / b, 1e-10);
  EXPECT_NEAR(chain.r(0, 0), (a + b) / b, 1e-10);
  EXPECT_NEAR(chain.r(1, 1), (a + b) / a, 1e-10);
}

TEST(PassageTimes, DiagonalIsMeanReturnTime) {
  const auto chain = test::unwrap(try_analyze_chain(test::chain3()));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(chain.r(i, i), 1.0 / chain.pi[i], 1e-10);
}

TEST(PassageTimes, SatisfiesOneStepRecurrence) {
  // R_ij = 1 + sum_{k != j} p_ik R_kj for i != j.
  const auto p = test::chain3();
  const auto chain = test::unwrap(try_analyze_chain(p));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      double rhs = 1.0;
      for (std::size_t k = 0; k < 3; ++k)
        if (k != j) rhs += p(i, k) * chain.r(k, j);
      EXPECT_NEAR(chain.r(i, j), rhs, 1e-9);
    }
  }
}

TEST(PassageTimes, MatchesIndependentLinearSolve) {
  util::Rng rng(31);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto chain = test::unwrap(try_analyze_chain(p));
    const auto direct = first_passage_times_by_solve(p.to_dense());
    EXPECT_TRUE(linalg::approx_equal(chain.r, direct, 1e-8));
  }
}

TEST(PassageTimes, AllEntriesPositive) {
  util::Rng rng(32);
  const auto p = test::random_positive_chain(7, rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 7; ++j) EXPECT_GT(chain.r(i, j), 0.0);
}

TEST(PassageTimes, AtLeastOneStep) {
  util::Rng rng(33);
  const auto p = test::random_positive_chain(4, rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_GE(chain.r(i, j), 1.0 - 1e-12);
}

TEST(PassageTimes, SizeMismatchThrows) {
  const auto chain = test::unwrap(try_analyze_chain(test::chain3()));
  EXPECT_THROW(first_passage_times(chain.z, linalg::Vector{0.5, 0.5}),
               std::invalid_argument);
}

class PassageRecurrenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PassageRecurrenceTest, RecurrenceAcrossSizes) {
  util::Rng rng(900 + GetParam());
  const auto p = test::random_positive_chain(GetParam(), rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  const std::size_t n = GetParam();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double rhs = 1.0;
      for (std::size_t k = 0; k < n; ++k)
        if (k != j) rhs += p(i, k) * chain.r(k, j);
      EXPECT_NEAR(chain.r(i, j), rhs, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PassageRecurrenceTest,
                         ::testing::Values(2, 3, 4, 6, 9, 12));

}  // namespace
}  // namespace mocos::markov
