#include "src/cost/barrier_term.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

TEST(BarrierTerm, ZeroInTheInterior) {
  BarrierTerm b(1e-4);
  EXPECT_DOUBLE_EQ(b.entry_value(0.5), 0.0);
  EXPECT_DOUBLE_EQ(b.entry_value(1e-3), 0.0);
  EXPECT_DOUBLE_EQ(b.entry_value(1.0 - 1e-3), 0.0);
  EXPECT_DOUBLE_EQ(b.entry_derivative(0.5), 0.0);
}

TEST(BarrierTerm, ZeroExactlyAtGates) {
  BarrierTerm b(0.01);
  EXPECT_DOUBLE_EQ(b.entry_value(0.01), 0.0);
  EXPECT_DOUBLE_EQ(b.entry_value(0.99), 0.0);
}

TEST(BarrierTerm, DivergesAtBoundary) {
  // The paper's barrier grows only like -eps*ln(p) near the boundary, so the
  // divergence is logarithmic: slow but unbounded.
  BarrierTerm b(0.01);
  EXPECT_TRUE(std::isinf(b.entry_value(0.0)));
  EXPECT_TRUE(std::isinf(b.entry_value(1.0)));
  EXPECT_GT(b.entry_value(1e-12), b.entry_value(1e-6));
  EXPECT_GT(b.entry_value(1e-6), b.entry_value(1e-3));
  EXPECT_GT(b.entry_value(1e-300), 1.0);
  EXPECT_LT(b.entry_value(1.0 - 1e-12), b.entry_value(1.0 - 1e-300));
}

TEST(BarrierTerm, PositiveInsideGates) {
  BarrierTerm b(0.01);
  EXPECT_GT(b.entry_value(0.005), 0.0);
  EXPECT_GT(b.entry_value(0.995), 0.0);
}

TEST(BarrierTerm, GradientPushesAwayFromBoundary) {
  BarrierTerm b(0.01);
  // Near 0 the cost must decrease as p grows (derivative < 0).
  EXPECT_LT(b.entry_derivative(0.002), 0.0);
  // Near 1 the cost must increase as p grows (derivative > 0).
  EXPECT_GT(b.entry_derivative(0.998), 0.0);
}

TEST(BarrierTerm, DerivativeMatchesFiniteDifference) {
  BarrierTerm b(0.01);
  for (double p : {0.001, 0.004, 0.008, 0.992, 0.996, 0.999}) {
    const double h = 1e-9;
    const double fd =
        (b.entry_value(p + h) - b.entry_value(p - h)) / (2.0 * h);
    EXPECT_NEAR(b.entry_derivative(p), fd, std::abs(fd) * 1e-4 + 1e-6)
        << "p=" << p;
  }
}

TEST(BarrierTerm, DerivativeOutsideDomainThrows) {
  BarrierTerm b(0.01);
  EXPECT_THROW(b.entry_derivative(0.0), std::domain_error);
  EXPECT_THROW(b.entry_derivative(1.0), std::domain_error);
}

TEST(BarrierTerm, RejectsBadEpsilon) {
  EXPECT_THROW(BarrierTerm(0.0), std::invalid_argument);
  EXPECT_THROW(BarrierTerm(0.5), std::invalid_argument);
  EXPECT_THROW(BarrierTerm(-1.0), std::invalid_argument);
}

TEST(BarrierTerm, ChainValueSumsEntries) {
  BarrierTerm b(0.3);  // wide gates so the uniform 3-chain (entries 1/3)
                       // sits partially inside the low gate region
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(3)));
  // all entries are 1/3 > eps=0.3 -> actually outside; use 0.4? eps<0.5.
  BarrierTerm wide(0.4);
  const double per_entry = wide.entry_value(1.0 / 3.0);
  EXPECT_GT(per_entry, 0.0);
  EXPECT_NEAR(wide.value(chain), 9.0 * per_entry, 1e-12);
  EXPECT_DOUBLE_EQ(b.value(chain), 9.0 * b.entry_value(1.0 / 3.0));
}

TEST(BarrierTerm, AccumulatesOnlyDirectPartials) {
  BarrierTerm b(0.4);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(3)));
  Partials p(3);
  b.accumulate_partials(chain, p);
  for (double x : p.du_dpi) EXPECT_DOUBLE_EQ(x, 0.0);
  EXPECT_DOUBLE_EQ(linalg::frobenius_dot(p.du_dz, p.du_dz), 0.0);
  EXPECT_GT(linalg::frobenius_dot(p.du_dp, p.du_dp), 0.0);
}

}  // namespace
}  // namespace mocos::cost
