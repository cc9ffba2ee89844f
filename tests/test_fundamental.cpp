#include "src/markov/fundamental.hpp"

#include <gtest/gtest.h>

#include "src/markov/stationary.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(Fundamental, DefinitionHolds) {
  // Z (I - P + W) = I.
  const TransitionMatrix p = test::chain3();
  const auto pi = test::unwrap(try_stationary_distribution(p));
  const auto w = stationary_rows(pi);
  const auto z = test::unwrap(try_fundamental_matrix(p.to_dense(), pi));
  const auto m = linalg::Matrix::identity(3) - p.to_dense() + w;
  EXPECT_TRUE(linalg::approx_equal(z * m, linalg::Matrix::identity(3), 1e-11));
  EXPECT_TRUE(linalg::approx_equal(m * z, linalg::Matrix::identity(3), 1e-11));
}

TEST(Fundamental, RowSumsAreOne) {
  // Z 1 = 1 because (I - P + W) 1 = 1.
  const TransitionMatrix p = test::chain3();
  const auto chain = test::unwrap(try_analyze_chain(p));
  for (std::size_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += chain.z(i, j);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Fundamental, PiZEqualsPi) {
  const TransitionMatrix p = test::chain3();
  const auto chain = test::unwrap(try_analyze_chain(p));
  const auto pi_z = linalg::mul(chain.pi, chain.z);
  EXPECT_TRUE(linalg::approx_equal(pi_z, chain.pi, 1e-12));
}

TEST(Fundamental, StationaryRowsMatrix) {
  const linalg::Vector pi{0.2, 0.3, 0.5};
  const auto w = stationary_rows(pi);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(w(i, j), pi[j]);
}

TEST(Fundamental, UniformChainHasIdentityLikeZ) {
  // For P = W (already stationary), Z = (I - W + W)^(-1) = I.
  const TransitionMatrix p = TransitionMatrix::uniform(4);
  const auto chain = test::unwrap(try_analyze_chain(p));
  EXPECT_TRUE(
      linalg::approx_equal(chain.z, linalg::Matrix::identity(4), 1e-12));
}

TEST(Fundamental, AnalyzeChainBundlesConsistently) {
  util::Rng rng(5);
  const auto p = test::random_positive_chain(5, rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  EXPECT_EQ(chain.p.size(), 5u);
  EXPECT_EQ(chain.pi.size(), 5u);
  // R diag = mean return times 1/pi_i.
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(chain.r(i, i), 1.0 / chain.pi[i], 1e-9);
}

class FundamentalPropertyTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(FundamentalPropertyTest, IdentitiesAcrossRandomChains) {
  util::Rng rng(500 + GetParam());
  for (int t = 0; t < 5; ++t) {
    const auto p = test::random_positive_chain(GetParam(), rng);
    const auto chain = test::unwrap(try_analyze_chain(p));
    const auto i = linalg::Matrix::identity(GetParam());
    const auto w = stationary_rows(chain.pi);
    const auto m = i - p.to_dense() + w;
    EXPECT_TRUE(linalg::approx_equal(chain.z * m, i, 1e-10));
    // WZ = W and ZW = W.
    EXPECT_TRUE(linalg::approx_equal(w * chain.z, w, 1e-10));
    EXPECT_TRUE(linalg::approx_equal(chain.z * w, w, 1e-10));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FundamentalPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 9));

}  // namespace
}  // namespace mocos::markov
