#include "src/markov/reversal.hpp"

#include <gtest/gtest.h>

#include "src/baselines/metropolis.hpp"
#include "src/markov/stationary.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(Reversal, ReversedChainSharesStationaryDistribution) {
  util::Rng rng(1);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto rev = reversed_chain(p);
    EXPECT_TRUE(linalg::approx_equal(
        test::unwrap(try_stationary_distribution(p)),
        test::unwrap(try_stationary_distribution(rev)), 1e-10));
  }
}

TEST(Reversal, DoubleReversalIsIdentity) {
  util::Rng rng(2);
  const auto p = test::random_positive_chain(4, rng);
  const auto back = reversed_chain(reversed_chain(p));
  EXPECT_TRUE(linalg::approx_equal(back.to_dense(), p.to_dense(), 1e-12));
}

TEST(Reversal, MetropolisChainsAreReversible) {
  // Metropolis–Hastings constructions satisfy detailed balance by design.
  const auto p = baselines::metropolis_chain({0.4, 0.1, 0.1, 0.4});
  EXPECT_TRUE(is_reversible(p));
  EXPECT_TRUE(
      linalg::approx_equal(reversed_chain(p).to_dense(), p.to_dense(), 1e-12));
}

TEST(Reversal, GenericChainsAreNot) {
  EXPECT_FALSE(is_reversible(test::chain3()));
  const auto rev = reversed_chain(test::chain3());
  EXPECT_FALSE(
      linalg::approx_equal(rev.to_dense(), test::chain3().to_dense(), 1e-6));
}

TEST(Reversal, SymmetricChainsAreReversible) {
  // Symmetric P has uniform pi and detailed balance trivially.
  linalg::Matrix m{{0.5, 0.3, 0.2}, {0.3, 0.4, 0.3}, {0.2, 0.3, 0.5}};
  EXPECT_TRUE(is_reversible(TransitionMatrix(m)));
}

}  // namespace
}  // namespace mocos::markov
