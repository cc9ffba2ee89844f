#include "src/sparse/resolvent_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/linalg/lu.hpp"
#include "src/linalg/norms.hpp"
#include "src/markov/stationary.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::sparse {
namespace {

using linalg::SparseMatrix;

// Sparse ergodic ring-with-shortcuts chain: banded structure (bandwidth 2)
// plus the wraparound, strictly substochastic off-diagonal so the chain is
// irreducible and aperiodic.
markov::TransitionMatrix ring_chain(std::size_t n) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.4;
    m(i, (i + 1) % n) = 0.3;
    m(i, (i + n - 1) % n) = 0.2;
    m(i, (i + 2) % n) = 0.1;
  }
  return markov::TransitionMatrix(std::move(m));
}

linalg::Matrix dense_resolvent_system(const linalg::Matrix& p,
                                      const linalg::Vector& u,
                                      const linalg::Vector& c) {
  const std::size_t n = p.rows();
  linalg::Matrix a = linalg::Matrix::identity(n) - p;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) += u[i] * c[j];
  return a;
}

TEST(ResolventOperator, ApplyMatchesDenseSystem) {
  const markov::TransitionMatrix p = ring_chain(13);
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  const std::size_t n = 13;
  linalg::Vector u(n, 1.0), c(n, 1.0 / static_cast<double>(n));
  const ResolventOperator op{&sp, u, c};
  const linalg::Matrix a = dense_resolvent_system(p.to_dense(), u, c);

  util::Rng rng(5);
  linalg::Vector x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  linalg::Vector y(n), yt(n);
  op.apply(x, y);
  op.apply_transpose(x, yt);
  for (std::size_t i = 0; i < n; ++i) {
    double dense = 0.0, dense_t = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dense += a(i, j) * x[j];
      dense_t += a(j, i) * x[j];
    }
    EXPECT_NEAR(y[i], dense, 1e-13);
    EXPECT_NEAR(yt[i], dense_t, 1e-13);
  }
  const linalg::Vector d = op.diagonal();
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(d[i], a(i, i), 1e-15);
}

TEST(ResolventSolver, BicgstabMatchesDirectSolve) {
  const std::size_t n = 24;
  const markov::TransitionMatrix p = ring_chain(n);
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  linalg::Vector u(n, 1.0), c(n, 1.0 / static_cast<double>(n));
  const ResolventOperator op{&sp, u, c};
  const linalg::Matrix a = dense_resolvent_system(p.to_dense(), u, c);

  util::Rng rng(17);
  for (int t = 0; t < 3; ++t) {
    linalg::Vector b(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    SolveDiagnostics diag;
    const auto x = try_solve_resolvent(op, b, &diag);
    ASSERT_TRUE(x.ok()) << x.status().message();
    EXPECT_TRUE(diag.converged);
    const auto ref = linalg::try_solve(a, b);
    ASSERT_TRUE(ref.ok());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], (*ref)[i], 1e-9);
  }
}

TEST(ResolventSolver, TransposeSolveMatchesDense) {
  const std::size_t n = 16;
  const markov::TransitionMatrix p = ring_chain(n);
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  linalg::Vector u(n, 1.0), c(n, 1.0 / static_cast<double>(n));
  const ResolventOperator op{&sp, u, c};
  linalg::Matrix a = dense_resolvent_system(p.to_dense(), u, c);
  // Transpose the dense system for the reference solve.
  linalg::Matrix at(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) at(i, j) = a(j, i);

  util::Rng rng(29);
  linalg::Vector b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const auto x = try_solve_resolvent(op, b, nullptr, /*transpose=*/true);
  ASSERT_TRUE(x.ok()) << x.status().message();
  const auto ref = linalg::try_solve(at, b);
  ASSERT_TRUE(ref.ok());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], (*ref)[i], 1e-9);
}

TEST(ResolventSolver, ReportsDeterministicResults) {
  const std::size_t n = 20;
  const markov::TransitionMatrix p = ring_chain(n);
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  linalg::Vector u(n, 1.0), c(n, 1.0 / static_cast<double>(n));
  const ResolventOperator op{&sp, u, c};
  linalg::Vector b(n, 0.0);
  b[3] = 1.0;
  const auto x1 = try_solve_resolvent(op, b);
  const auto x2 = try_solve_resolvent(op, b);
  ASSERT_TRUE(x1.ok() && x2.ok());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ((*x1)[i], (*x2)[i]);
}

TEST(BandedResolventLu, MatchesDenseAnchoredSolve) {
  // ring_chain has wraparound entries; build a pure band instead: a lazy
  // random walk on a path.
  const std::size_t n = 30;
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool first = i == 0, last = i + 1 == n;
    m(i, i) = 0.5;
    if (!last) m(i, i + 1) = first ? 0.5 : 0.25;
    if (!first) m(i, i - 1) = last ? 0.5 : 0.25;
  }
  const markov::TransitionMatrix p(m);
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  linalg::Vector c(n, 1.0 / static_cast<double>(n));
  auto lu = BandedResolventLu::try_factor(sp, c, 1);
  ASSERT_TRUE(lu.ok()) << lu.status().message();

  // Dense reference: B = I - P + e_{n-1} c^T.
  linalg::Matrix b = linalg::Matrix::identity(n) - p.to_dense();
  for (std::size_t j = 0; j < n; ++j) b(n - 1, j) += c[j];

  util::Rng rng(41);
  for (int t = 0; t < 3; ++t) {
    linalg::Vector rhs(n);
    for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
    linalg::Vector x = rhs;
    lu->solve_inplace(x);
    const auto ref = linalg::try_solve(b, rhs);
    ASSERT_TRUE(ref.ok());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], (*ref)[i], 1e-10);
  }
}

TEST(BandedResolventLu, TransposedSolveMatchesDenseAndYieldsPi) {
  // A non-reversible walk on a path with bandwidth 2: Bᵀx = rhs matches the
  // dense solve, and B⁻ᵀc is the stationary distribution up to scale.
  const std::size_t n = 25;
  util::Rng rng(43);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = (i >= 2 ? i - 2 : 0); j <= std::min(i + 2, n - 1);
         ++j) {
      m(i, j) = 0.05 + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  const markov::TransitionMatrix p(m);
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  linalg::Vector c(n, 1.0 / static_cast<double>(n));
  auto lu = BandedResolventLu::try_factor(sp, c, 2);
  ASSERT_TRUE(lu.ok()) << lu.status().message();

  linalg::Matrix b = linalg::Matrix::identity(n) - p.to_dense();
  for (std::size_t j = 0; j < n; ++j) b(n - 1, j) += c[j];
  linalg::Vector rhs(n);
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
  linalg::Vector x = rhs;
  lu->solve_transposed_inplace(x);
  const auto ref = linalg::try_solve(b.transposed(), rhs);
  ASSERT_TRUE(ref.ok());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], (*ref)[i], 1e-10);

  linalg::Vector pi = c;
  lu->solve_transposed_inplace(pi);
  double mass = 0.0;
  for (double v : pi) mass += v;
  const linalg::Vector exact =
      test::unwrap(markov::try_stationary_distribution(p));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(pi[i] / mass, exact[i], 1e-12);
}

TEST(BandedResolventLu, RejectsEntriesOutsideTheBand) {
  const markov::TransitionMatrix p = ring_chain(12);  // wraparound: |i-j| = 11
  const SparseMatrix sp = SparseMatrix::from_dense(p.to_dense());
  linalg::Vector c(12, 1.0 / 12.0);
  const auto lu = BandedResolventLu::try_factor(sp, c, 2);
  ASSERT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), util::StatusCode::kInvalidConfig);
}

}  // namespace
}  // namespace mocos::sparse
