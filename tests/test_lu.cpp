#include "src/linalg/lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/util/rng.hpp"
#include "src/util/status.hpp"

namespace mocos::linalg {
namespace {

TEST(Lu, SolvesSimpleSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SolveRequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SolveTransposedSolvesTheTransposedSystem) {
  // One factorization of A serves Aᵀx = b: the same answer as factoring Aᵀ,
  // with row swaps forced by a zero leading entry.
  util::Rng rng(17);
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  a(0, 0) = 0.0;
  const Vector b{1.0, -2.0, 0.5, 3.0, -1.0, 2.0};
  const Vector x = LuDecomposition(a).solve_transposed(b);
  const Vector ref = solve(a.transposed(), b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], ref[i], 1e-12);
}

TEST(Lu, InverseTimesMatrixIsIdentity) {
  Matrix a{{4.0, 7.0, 2.0}, {3.0, 5.0, 1.0}, {8.0, 1.0, 6.0}};
  const Matrix inv = inverse(a);
  EXPECT_TRUE(approx_equal(a * inv, Matrix::identity(3), 1e-10));
  EXPECT_TRUE(approx_equal(inv * a, Matrix::identity(3), 1e-10));
}

TEST(Lu, DeterminantKnownValues) {
  EXPECT_NEAR(determinant(Matrix{{2.0, 0.0}, {0.0, 3.0}}), 6.0, 1e-12);
  EXPECT_NEAR(determinant(Matrix{{0.0, 1.0}, {1.0, 0.0}}), -1.0, 1e-12);
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(determinant(a), -2.0, 1e-12);
}

TEST(Lu, SingularMatrixThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuDecomposition{a}, std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW(LuDecomposition{Matrix(2, 3)}, std::invalid_argument);
}

TEST(Lu, SolveSizeMismatchThrows) {
  LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW(lu.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Lu, MatrixRhsSolve) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  Matrix b{{2.0, 4.0}, {8.0, 12.0}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

TEST(Lu, TryFactorReportsSingularWithDiagnostics) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};  // rank 1
  const auto lu = LuDecomposition::try_factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), util::StatusCode::kSingularMatrix);
  // The status names the breakdown column so callers can log it.
  EXPECT_NE(lu.status().message().find("column 1"), std::string::npos)
      << lu.status().message();
}

TEST(Lu, TryFactorRejectsNonSquare) {
  const auto lu = LuDecomposition::try_factor(Matrix(2, 3));
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), util::StatusCode::kSizeMismatch);
}

TEST(Lu, TryFactorRejectsNonFinite) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  a(1, 1) = std::numeric_limits<double>::quiet_NaN();
  const auto lu = LuDecomposition::try_factor(a);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), util::StatusCode::kSingularMatrix);
}

TEST(Lu, DiagnosticsTrackPivotHealth) {
  const auto id = LuDecomposition::try_factor(Matrix::identity(4));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(id->diagnostics().completed());
  EXPECT_DOUBLE_EQ(id->diagnostics().min_pivot, 1.0);
  EXPECT_DOUBLE_EQ(id->diagnostics().max_pivot, 1.0);
  EXPECT_DOUBLE_EQ(id->diagnostics().rcond_estimate, 1.0);
  EXPECT_NEAR(id->condition_number_1norm(), 1.0, 1e-12);
}

TEST(Lu, NearSingularFactorsButFlagsTinyRcond) {
  // Rank-deficient up to a 1e-10 perturbation: the factorization succeeds
  // (the pivot clears the hard threshold) but both condition diagnostics
  // must scream.
  const Matrix a{{1.0, 1.0}, {1.0, 1.0 + 1e-10}};
  const auto lu = LuDecomposition::try_factor(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_TRUE(lu->diagnostics().completed());
  EXPECT_LT(lu->diagnostics().rcond_estimate, 1e-9);
  EXPECT_GT(lu->condition_number_1norm(), 1e9);
  // The solve still round-trips to the accuracy the conditioning allows.
  const Vector x = lu->solve(Vector{2.0, 2.0});
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-5);
}

TEST(Lu, TryHelpersPropagateSingularity) {
  const Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_EQ(try_solve(singular, {1.0, 1.0}).status().code(),
            util::StatusCode::kSingularMatrix);
  EXPECT_EQ(try_inverse(singular).status().code(),
            util::StatusCode::kSingularMatrix);
  EXPECT_EQ(try_solve(Matrix::identity(2), {1.0, 2.0, 3.0}).status().code(),
            util::StatusCode::kSizeMismatch);

  const auto x = try_solve(Matrix{{2.0, 0.0}, {0.0, 4.0}}, {2.0, 8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(Lu, RefactorInPlaceMatchesFreshFactorization) {
  // One decomposition refactored across sizes, with a failed refactor in
  // between: every success solves both sides exactly as a fresh
  // factorization of the same matrix does.
  util::Rng rng(77);
  LuDecomposition slot;
  for (const std::size_t n : {5u, 3u, 2u, 8u, 8u}) {
    if (n == 2) {
      const util::Status failed = slot.try_refactor(2, [](double* a) {
        a[0] = 1.0;
        a[1] = 2.0;
        a[2] = 2.0;
        a[3] = 4.0;
      });
      EXPECT_EQ(failed.code(), util::StatusCode::kSingularMatrix);
    }
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    ASSERT_TRUE(slot.try_refactor(n, [&a](double* out) {
                      std::copy(a.data(), a.data() + a.rows() * a.cols(),
                                out);
                    }).is_ok());
    const auto fresh = LuDecomposition::try_factor(a);
    ASSERT_TRUE(fresh.ok());
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
    EXPECT_EQ(slot.solve(b), fresh->solve(b)) << "n=" << n;
    EXPECT_EQ(slot.solve_transposed(b), fresh->solve_transposed(b));
    EXPECT_EQ(slot.determinant(), fresh->determinant());
  }
}

class LuRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomTest, RandomSystemsRoundTrip) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    // Diagonal dominance guarantees nonsingularity.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-5.0, 5.0);
    const Vector b = mul(a, x_true);
    const Vector x = solve(a, b);
    EXPECT_TRUE(approx_equal(x, x_true, 1e-9)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomTest,
                         ::testing::Values(2, 3, 4, 6, 9, 16));

}  // namespace
}  // namespace mocos::linalg
