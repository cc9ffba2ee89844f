#include "src/cost/projection.hpp"

#include <gtest/gtest.h>

#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

linalg::Matrix random_matrix(std::size_t n, util::Rng& rng) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  return m;
}

TEST(Projection, RowsSumToZero) {
  util::Rng rng(11);
  const auto m = random_matrix(5, rng);
  const auto p = project_row_sum_zero(m);
  EXPECT_NEAR(max_abs_row_sum(p), 0.0, 1e-12);
}

TEST(Projection, Idempotent) {
  util::Rng rng(12);
  const auto m = random_matrix(4, rng);
  const auto once = project_row_sum_zero(m);
  const auto twice = project_row_sum_zero(once);
  EXPECT_TRUE(linalg::approx_equal(once, twice, 1e-14));
}

TEST(Projection, FixesRowSumZeroMatrices) {
  linalg::Matrix m{{1.0, -1.0}, {-0.5, 0.5}};
  EXPECT_TRUE(linalg::approx_equal(project_row_sum_zero(m), m, 1e-15));
}

TEST(Projection, MatchesPaperFormula) {
  linalg::Matrix m{{1.0, 2.0, 3.0}, {4.0, 4.0, 4.0}, {0.0, 0.0, 3.0}};
  const auto p = project_row_sum_zero(m);
  EXPECT_DOUBLE_EQ(p(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(p(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(p(2, 2), 2.0);
}

TEST(Projection, SelfAdjointOnFrobenius) {
  // <Pi[A], B> == <A, Pi[B]> for the orthogonal projector.
  util::Rng rng(13);
  const auto a = random_matrix(4, rng);
  const auto b = random_matrix(4, rng);
  EXPECT_NEAR(linalg::frobenius_dot(project_row_sum_zero(a), b),
              linalg::frobenius_dot(a, project_row_sum_zero(b)), 1e-10);
}

TEST(Projection, NonExpansive) {
  util::Rng rng(14);
  const auto a = random_matrix(6, rng);
  const auto p = project_row_sum_zero(a);
  EXPECT_LE(linalg::frobenius_dot(p, p), linalg::frobenius_dot(a, a) + 1e-12);
}

TEST(Projection, OnPatternIsTheDenseFormulaOnAFullPattern) {
  // On a strictly positive P the descent's projection over P's pattern is
  // Eq. 11 bit for bit: the same sums in the same order, the same divisor.
  util::Rng rng(23);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto g = random_matrix(5, rng);
    EXPECT_EQ(project_row_sum_zero_on_support(test::on_pattern(p, g), p)
                  .to_dense(),
              project_row_sum_zero(g));
  }
  // On a support, each row's mean runs over its stored entries only and
  // nothing is stored off the pattern.
  const markov::TransitionMatrix q(linalg::Matrix{
      {0.5, 0.5, 0.0}, {0.25, 0.5, 0.25}, {0.0, 0.5, 0.5}});
  const linalg::Matrix g{{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}};
  const auto proj = project_row_sum_zero_on_support(test::on_pattern(q, g), q);
  EXPECT_EQ(proj.nnz(), 7u);
  EXPECT_EQ(proj.to_dense(), (linalg::Matrix{{-0.5, 0.5, 0.0},
                                             {-1.0, 0.0, 1.0},
                                             {0.0, -0.5, 0.5}}));
}

TEST(MaxAbsRowSum, ComputesCorrectly) {
  linalg::Matrix m{{1.0, 2.0}, {-4.0, 1.0}};
  EXPECT_DOUBLE_EQ(max_abs_row_sum(m), 3.0);
}

}  // namespace
}  // namespace mocos::cost
