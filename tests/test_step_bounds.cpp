#include "src/descent/step_bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::descent {
namespace {

/// Values of a dense matrix on the full pattern of `p`'s size.
std::vector<double> row_major(const linalg::Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.rows() * m.cols());
}

/// max_feasible_step for a dense row-stochastic P, held on the full pattern
/// (zeros stored), and a dense V on that pattern.
double max_feasible_step(const linalg::Matrix& p, const linalg::Matrix& v,
                         double margin = 0.0) {
  const markov::TransitionMatrix tp(linalg::SparseMatrix(
      linalg::SparsityPattern::full(p.rows(), p.cols()), row_major(p)));
  return descent::max_feasible_step(
      tp, linalg::SparseMatrix(tp.csr().shared_pattern(), row_major(v)),
      margin);
}

TEST(StepBounds, SimpleUpperBound) {
  linalg::Matrix p{{0.5, 0.5}, {0.5, 0.5}};
  linalg::Matrix v{{1.0, -1.0}, {0.0, 0.0}};
  // Entry (0,0) hits 1 at t = 0.5; entry (0,1) hits 0 at t = 0.5.
  EXPECT_DOUBLE_EQ(max_feasible_step(p, v), 0.5);
}

TEST(StepBounds, MarginShrinksBound) {
  linalg::Matrix p{{0.5, 0.5}, {0.5, 0.5}};
  linalg::Matrix v{{1.0, -1.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(max_feasible_step(p, v, 0.1), 0.4);
}

TEST(StepBounds, ZeroDirectionIsUnbounded) {
  linalg::Matrix p{{0.5, 0.5}, {0.5, 0.5}};
  linalg::Matrix v(2, 2);
  EXPECT_TRUE(std::isinf(max_feasible_step(p, v)));
}

TEST(StepBounds, AlreadyAtBoundGivesZero) {
  linalg::Matrix p{{1.0, 0.0}, {0.5, 0.5}};
  linalg::Matrix v{{1.0, -1.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(max_feasible_step(p, v), 0.0);
}

TEST(StepBounds, NegativeBoundClampsToZero) {
  // Entry outside the margin box: the bound formula would be negative.
  linalg::Matrix p{{0.95, 0.05}, {0.5, 0.5}};
  linalg::Matrix v{{1.0, -1.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(max_feasible_step(p, v, 0.1), 0.0);
}

TEST(StepBounds, RejectsBadInput) {
  // V must live on P's pattern: a chain with a structural zero has no slot
  // for a direction over all four entries.
  const markov::TransitionMatrix p(linalg::Matrix{{1.0, 0.0}, {0.5, 0.5}});
  const linalg::SparseMatrix v(linalg::SparsityPattern::full(2, 2), 0.0);
  EXPECT_THROW((void)descent::max_feasible_step(p, v), std::invalid_argument);
  linalg::Matrix q{{0.5, 0.5}, {0.5, 0.5}}, v2(2, 2);
  EXPECT_THROW(max_feasible_step(q, v2, -0.1), std::invalid_argument);
  EXPECT_THROW(max_feasible_step(q, v2, 0.5), std::invalid_argument);
}

TEST(StepBounds, PropertyStepKeepsEntriesInBox) {
  util::Rng rng(17);
  for (int t = 0; t < 50; ++t) {
    const auto p = test::random_positive_chain(4, rng);
    const auto v = test::random_direction(4, rng);
    const double margin = 1e-6;
    const double bound = max_feasible_step(p.to_dense(), v, margin);
    ASSERT_TRUE(std::isfinite(bound));
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        const double x = p(i, j) + bound * v(i, j);
        EXPECT_GE(x, margin - 1e-12);
        EXPECT_LE(x, 1.0 - margin + 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace mocos::descent
