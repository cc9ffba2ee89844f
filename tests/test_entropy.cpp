#include "src/markov/entropy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/markov/stationary.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(Entropy, UniformChainAchievesMaximum) {
  const TransitionMatrix p = TransitionMatrix::uniform(4);
  EXPECT_NEAR(entropy_rate(p), std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(max_entropy_rate(4), std::log(4.0));
}

TEST(Entropy, DeterministicCycleHasZeroEntropy) {
  // 0 -> 1 -> 2 -> 0 deterministic: irreducible, entropy 0. Stationary
  // distribution exists (uniform) even though the chain is periodic.
  linalg::Matrix m{{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}};
  const TransitionMatrix p(m);
  const linalg::Vector pi{1.0 / 3, 1.0 / 3, 1.0 / 3};
  EXPECT_DOUBLE_EQ(entropy_rate(p, pi), 0.0);
}

TEST(Entropy, BetweenZeroAndMax) {
  util::Rng rng(44);
  for (int t = 0; t < 20; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const double h = entropy_rate(p);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, max_entropy_rate(5) + 1e-12);
  }
}

TEST(Entropy, TwoStateClosedForm) {
  // H = sum_i pi_i * H(row_i) with binary entropies.
  const double a = 0.3, b = 0.2;
  const auto p = test::chain2(a, b);
  auto hb = [](double q) {
    return -(q * std::log(q) + (1 - q) * std::log(1 - q));
  };
  const double pi0 = b / (a + b), pi1 = a / (a + b);
  EXPECT_NEAR(entropy_rate(p), pi0 * hb(a) + pi1 * hb(b), 1e-12);
}

TEST(Entropy, SizeMismatchThrows) {
  const auto p = test::chain3();
  EXPECT_THROW(entropy_rate(p, linalg::Vector{0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(max_entropy_rate(0), std::invalid_argument);
}

}  // namespace
}  // namespace mocos::markov
