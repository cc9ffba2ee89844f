#include "src/markov/group_inverse.hpp"

#include <gtest/gtest.h>

#include "src/markov/fundamental.hpp"
#include "src/markov/stationary.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(GroupInverse, SatisfiesAxiomsOnKnownChain) {
  const TransitionMatrix p = test::chain3();
  const auto pi = test::unwrap(try_stationary_distribution(p));
  const auto a = linalg::Matrix::identity(3) - p.to_dense();
  const auto g = group_inverse(p.to_dense(), pi);
  EXPECT_TRUE(satisfies_group_inverse_axioms(a, g, 1e-10));
}

TEST(GroupInverse, PaperEq5WIsIMinusAAsharp) {
  const TransitionMatrix p = test::chain3();
  const auto chain = test::unwrap(try_analyze_chain(p));
  const auto a = linalg::Matrix::identity(3) - p.to_dense();
  const auto g = group_inverse(p.to_dense(), chain.pi);
  const auto w = linalg::Matrix::identity(3) - a * g;
  EXPECT_TRUE(linalg::approx_equal(w, stationary_rows(chain.pi), 1e-10));
}

TEST(GroupInverse, PaperEq7ZIsIPlusPAsharp) {
  const TransitionMatrix p = test::chain3();
  const auto chain = test::unwrap(try_analyze_chain(p));
  const auto g = group_inverse(p.to_dense(), chain.pi);
  const auto z = linalg::Matrix::identity(3) + p.to_dense() * g;
  EXPECT_TRUE(linalg::approx_equal(z, chain.z, 1e-10));
}

TEST(GroupInverse, CheckerRejectsWrongCandidate) {
  const TransitionMatrix p = test::chain3();
  const auto a = linalg::Matrix::identity(3) - p.to_dense();
  EXPECT_FALSE(
      satisfies_group_inverse_axioms(a, linalg::Matrix::identity(3), 1e-10));
  EXPECT_FALSE(satisfies_group_inverse_axioms(a, linalg::Matrix(2, 2), 1e-10));
}

class GroupInversePropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupInversePropertyTest, AxiomsAcrossRandomChains) {
  util::Rng rng(700 + GetParam());
  for (int t = 0; t < 5; ++t) {
    const auto p = test::random_positive_chain(GetParam(), rng);
    const auto pi = test::unwrap(try_stationary_distribution(p));
    const auto a =
        linalg::Matrix::identity(GetParam()) - p.to_dense();
    const auto g = group_inverse(p.to_dense(), pi);
    EXPECT_TRUE(satisfies_group_inverse_axioms(a, g, 1e-9));
    // A# A = I - W (projector complementary to the stationary direction).
    const auto w = stationary_rows(pi);
    EXPECT_TRUE(linalg::approx_equal(
        g * a, linalg::Matrix::identity(GetParam()) - w, 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupInversePropertyTest,
                         ::testing::Values(2, 3, 5, 8));

}  // namespace
}  // namespace mocos::markov
