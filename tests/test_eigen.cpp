#include "src/linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/linalg/lu.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/spectral.hpp"
#include "src/markov/stationary.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::linalg {
namespace {

TEST(Eigen, DiagonalMatrix) {
  const auto eig = eigenvalues(Matrix::diag({3.0, -1.0, 2.0}));
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(std::abs(eig[0]), 3.0, 1e-10);
  EXPECT_NEAR(std::abs(eig[1]), 2.0, 1e-10);
  EXPECT_NEAR(std::abs(eig[2]), 1.0, 1e-10);
  EXPECT_NEAR(eig[2].real(), -1.0, 1e-10);
}

TEST(Eigen, RotationMatrixHasComplexPair) {
  const double theta = 0.7;
  Matrix r{{std::cos(theta), -std::sin(theta)},
           {std::sin(theta), std::cos(theta)}};
  const auto eig = eigenvalues(r);
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(std::abs(eig[0]), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(eig[1]), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(eig[0].imag()), std::sin(theta), 1e-10);
  EXPECT_NEAR(eig[0].real(), std::cos(theta), 1e-10);
}

TEST(Eigen, CompanionMatrixOfKnownPolynomial) {
  // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
  Matrix c{{6.0, -11.0, 6.0}, {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
  const auto eig = eigenvalues(c);
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(eig[0].real(), 3.0, 1e-8);
  EXPECT_NEAR(eig[1].real(), 2.0, 1e-8);
  EXPECT_NEAR(eig[2].real(), 1.0, 1e-8);
  for (const auto& l : eig) EXPECT_NEAR(l.imag(), 0.0, 1e-8);
}

TEST(Eigen, TraceAndDeterminantIdentities) {
  util::Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const std::size_t n = 3 + rng.index(5);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-2.0, 2.0);
    const auto eig = eigenvalues(a);
    std::complex<double> sum(0.0, 0.0), prod(1.0, 0.0);
    for (const auto& l : eig) {
      sum += l;
      prod *= l;
    }
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
    EXPECT_NEAR(sum.real(), trace, 1e-7);
    EXPECT_NEAR(sum.imag(), 0.0, 1e-7);
    EXPECT_NEAR(prod.real(), determinant(a), 1e-6 * std::max(1.0, std::abs(determinant(a))));
  }
}

TEST(Eigen, StochasticMatrixHasPerronEigenvalueOne) {
  util::Rng rng(6);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto eig = eigenvalues(p.to_dense());
    EXPECT_NEAR(std::abs(eig[0]), 1.0, 1e-9);
    EXPECT_NEAR(eig[0].real(), 1.0, 1e-9);
    for (std::size_t k = 1; k < eig.size(); ++k)
      EXPECT_LT(std::abs(eig[k]), 1.0);
  }
}

TEST(Eigen, ValidatesSlemEstimator) {
  // The exact second eigenvalue modulus must match markov::slem.
  util::Rng rng(7);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto pi = test::unwrap(markov::try_stationary_distribution(p));
    const Matrix deflated = p.to_dense() - markov::stationary_rows(pi);
    const double exact = eigenvalue_modulus(deflated, 0);
    // slem() is a repeated-squaring *estimator*; its error shrinks with the
    // λ2/λ3 separation, so allow a modest relative band.
    EXPECT_NEAR(markov::slem(p), exact, 1e-3 + 1e-2 * exact) << "trial " << t;
  }
}

TEST(Eigen, TwoStateChainClosedForm) {
  const auto eig = eigenvalues(test::chain2(0.3, 0.2).to_dense());
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(eig[0].real(), 1.0, 1e-10);
  EXPECT_NEAR(eig[1].real(), 0.5, 1e-10);
}

TEST(Eigen, EdgeCases) {
  EXPECT_TRUE(eigenvalues(Matrix()).empty());
  const auto one = eigenvalues(Matrix{{4.2}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].real(), 4.2);
  const auto zero = eigenvalues(Matrix(3, 3, 0.0));
  for (const auto& l : zero) EXPECT_EQ(std::abs(l), 0.0);
  EXPECT_THROW(eigenvalues(Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(eigenvalue_modulus(Matrix{{1.0}}, 1), std::out_of_range);
}

TEST(Eigen, PeriodicChainEigenvaluesOnUnitCircle) {
  // Deterministic 3-cycle: eigenvalues are the cube roots of unity.
  Matrix m{{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}};
  const auto eig = eigenvalues(m);
  for (const auto& l : eig) EXPECT_NEAR(std::abs(l), 1.0, 1e-9);
  // One real eigenvalue 1, one conjugate pair at angle ±120°.
  int real_count = 0;
  for (const auto& l : eig)
    if (std::abs(l.imag()) < 1e-9) ++real_count;
  EXPECT_EQ(real_count, 1);
}

}  // namespace
}  // namespace mocos::linalg
