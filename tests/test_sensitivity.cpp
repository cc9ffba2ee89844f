#include "src/markov/sensitivity.hpp"

#include <gtest/gtest.h>

#include "src/markov/stationary.hpp"
#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

// Central finite difference of the chain analysis along direction V.
struct FiniteDiff {
  linalg::Vector dpi;
  linalg::Matrix dz;
};

FiniteDiff finite_difference(const TransitionMatrix& p,
                             const linalg::Matrix& v, double h) {
  const std::size_t n = p.size();
  linalg::Matrix plus(n, n), minus(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      plus(i, j) = p(i, j) + h * v(i, j);
      minus(i, j) = p(i, j) - h * v(i, j);
    }
  }
  const auto cp = test::unwrap(try_analyze_chain(TransitionMatrix(plus)));
  const auto cm = test::unwrap(try_analyze_chain(TransitionMatrix(minus)));
  FiniteDiff out{linalg::Vector(n, 0.0), linalg::Matrix(n, n)};
  for (std::size_t i = 0; i < n; ++i)
    out.dpi[i] = (cp.pi[i] - cm.pi[i]) / (2.0 * h);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      out.dz(i, j) = (cp.z(i, j) - cm.z(i, j)) / (2.0 * h);
  return out;
}

TEST(Sensitivity, StationaryDerivativeMatchesFiniteDifference) {
  util::Rng rng(61);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(4, rng);
    const auto chain = test::unwrap(try_analyze_chain(p));
    const auto v = test::random_direction(4, rng);
    const auto analytic = stationary_directional_derivative(chain, v);
    const auto fd = finite_difference(p, v, 1e-6);
    EXPECT_TRUE(linalg::approx_equal(analytic, fd.dpi, 1e-5))
        << "trial " << t;
  }
}

TEST(Sensitivity, FundamentalDerivativeMatchesFiniteDifference) {
  util::Rng rng(62);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(4, rng);
    const auto chain = test::unwrap(try_analyze_chain(p));
    const auto v = test::random_direction(4, rng);
    const auto analytic = fundamental_directional_derivative(chain, v);
    const auto fd = finite_difference(p, v, 1e-6);
    EXPECT_TRUE(linalg::approx_equal(analytic, fd.dz, 1e-4)) << "trial " << t;
  }
}

TEST(Sensitivity, StationaryDerivativeSumsToZero) {
  // Σ_i dπ_i = 0 since Σ_i π_i = 1 identically.
  util::Rng rng(63);
  const auto p = test::random_positive_chain(5, rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  const auto v = test::random_direction(5, rng);
  const auto dpi = stationary_directional_derivative(chain, v);
  double s = 0.0;
  for (double x : dpi) s += x;
  EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(Sensitivity, ZeroDirectionGivesZeroDerivatives) {
  const auto chain = test::unwrap(try_analyze_chain(test::chain3()));
  const linalg::Matrix zero(3, 3);
  EXPECT_TRUE(linalg::approx_equal(
      stationary_directional_derivative(chain, zero),
      linalg::Vector(3, 0.0), 0.0));
  EXPECT_TRUE(linalg::approx_equal(
      fundamental_directional_derivative(chain, zero), zero, 0.0));
}

TEST(Sensitivity, DerivativesAreLinearInDirection) {
  util::Rng rng(64);
  const auto p = test::random_positive_chain(4, rng);
  const auto chain = test::unwrap(try_analyze_chain(p));
  const auto v = test::random_direction(4, rng);
  const auto dpi1 = stationary_directional_derivative(chain, v);
  const auto dpi2 = stationary_directional_derivative(chain, v * 2.0);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(dpi2[i], 2.0 * dpi1[i], 1e-12);
}

TEST(ChainRule, ReproducesDirectionalDerivative) {
  // For any partials (g_pi, G_z, G_p), <chain_rule_gradient, V> must equal
  // g_pi . dpi(V) + <G_z, dZ(V)> + <G_p, V>.
  util::Rng rng(65);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(4, rng);
    const auto chain = test::unwrap(try_analyze_chain(p));
    const auto v = test::random_direction(4, rng);

    linalg::Vector g_pi(4);
    linalg::Matrix g_z(4, 4), g_p(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      g_pi[i] = rng.uniform(-1.0, 1.0);
      for (std::size_t j = 0; j < 4; ++j) {
        g_z(i, j) = rng.uniform(-1.0, 1.0);
        g_p(i, j) = rng.uniform(-1.0, 1.0);
      }
    }

    const auto grad = chain_rule_gradient(
        chain, g_pi, g_z, linalg::SparseMatrix::from_dense(g_p));
    const double lhs = linalg::frobenius_dot(grad.to_dense(), v);

    const auto dpi = stationary_directional_derivative(chain, v);
    const auto dz = fundamental_directional_derivative(chain, v);
    const double rhs = linalg::dot(g_pi, dpi) + linalg::frobenius_dot(g_z, dz) +
                       linalg::frobenius_dot(g_p, v);
    EXPECT_NEAR(lhs, rhs, 1e-9) << "trial " << t;
  }
}

TEST(ChainRule, SizeMismatchThrows) {
  const auto chain = test::unwrap(try_analyze_chain(test::chain3()));
  EXPECT_THROW(chain_rule_gradient(chain, linalg::Vector(2, 0.0),
                                   linalg::Matrix(3, 3),
                                   linalg::SparseMatrix(
                                       linalg::SparsityPattern::full(3, 3))),
               std::invalid_argument);
}

}  // namespace
}  // namespace mocos::markov
