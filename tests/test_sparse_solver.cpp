#include "src/sparse/resolvent_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/geometry/city_topology.hpp"
#include "src/linalg/lu.hpp"
#include "src/linalg/norms.hpp"
#include "src/markov/stationary.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/sparse/resolvent_ladder.hpp"
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

// The full-band elimination and solves the envelope bound replaced, kept as
// the reference: every pivot row runs out to k + b, every solve over the
// whole band. The envelope must reproduce its factors, and through them π
// and G·v, bit for bit.
struct FullBandLu {
  std::size_t n = 0;
  std::size_t b = 0;
  std::vector<double> band;
  linalg::Vector last_row;

  double& at(std::size_t i, std::size_t j) {
    return band[i * (2 * b + 1) + (j + b - i)];
  }
  double at(std::size_t i, std::size_t j) const {
    return band[i * (2 * b + 1) + (j + b - i)];
  }

  // Same meaning as BandedResolventLu::factor.
  double factor(std::size_t i, std::size_t j) const {
    if (i + 1 == n) return last_row[j];
    return (i > j ? i - j : j - i) <= b ? at(i, j) : 0.0;
  }

  static FullBandLu factor_of(const SparseMatrix& p, const linalg::Vector& c,
                              std::size_t bandwidth,
                              const std::vector<std::size_t>& position) {
    FullBandLu lu;
    const std::size_t n = p.rows();
    lu.n = n;
    lu.b = std::min(bandwidth, n - 1);
    const std::size_t b = lu.b;
    lu.band.assign((n - 1) * (2 * b + 1), 0.0);
    lu.last_row.assign(n, 0.0);
    const auto at_pos = [&](std::size_t i) {
      return position.empty() ? i : position[i];
    };
    for (std::size_t a = 0; a + 1 < n; ++a) lu.at(a, a) = 1.0;
    for (std::size_t j = 0; j < n; ++j)
      lu.last_row[j] = (j + 1 == n ? 1.0 : 0.0) + c[j];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t a = at_pos(i);
      for (std::size_t e = p.row_offsets()[i]; e < p.row_offsets()[i + 1];
           ++e) {
        const std::size_t j = at_pos(p.col_indices()[e]);
        if (a + 1 == n)
          lu.last_row[j] -= p.values()[e];
        else
          lu.at(a, j) -= p.values()[e];
      }
    }
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double pivot = lu.at(k, k);
      const std::size_t row_end = std::min(k + b, n - 2);
      const std::size_t col_end = std::min(k + b, n - 1);
      for (std::size_t i = k + 1; i <= row_end; ++i) {
        const double l = lu.at(i, k) / pivot;
        lu.at(i, k) = l;
        if (l == 0.0) continue;  // exact: structural zero below the pivot
        for (std::size_t j = k + 1; j <= col_end; ++j)
          lu.at(i, j) -= l * lu.at(k, j);
      }
      const double l_last = lu.last_row[k] / pivot;
      lu.last_row[k] = l_last;
      if (l_last != 0.0) {
        for (std::size_t j = k + 1; j <= col_end; ++j)
          lu.last_row[j] -= l_last * lu.at(k, j);
      }
    }
    return lu;
  }

  void solve(linalg::Vector& rhs) const {
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double xk = rhs[k];
      if (xk != 0.0) {
        for (std::size_t i = k + 1; i <= std::min(k + b, n - 2); ++i)
          rhs[i] -= at(i, k) * xk;
        rhs[n - 1] -= last_row[k] * xk;
      }
    }
    rhs[n - 1] /= last_row[n - 1];
    for (std::size_t k = n - 1; k-- > 0;) {
      double acc = rhs[k];
      for (std::size_t j = k + 1; j <= std::min(k + b, n - 1); ++j)
        acc -= at(k, j) * rhs[j];
      rhs[k] = acc / at(k, k);
    }
  }

  void solve_transposed(linalg::Vector& rhs) const {
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double xk = rhs[k] / at(k, k);
      rhs[k] = xk;
      if (xk != 0.0) {
        for (std::size_t j = k + 1; j <= std::min(k + b, n - 1); ++j)
          rhs[j] -= at(k, j) * xk;
      }
    }
    rhs[n - 1] /= last_row[n - 1];
    for (std::size_t k = n - 1; k-- > 0;) {
      double acc = rhs[k] - last_row[k] * rhs[n - 1];
      for (std::size_t i = k + 1; i <= std::min(k + b, n - 2); ++i)
        acc -= at(i, k) * rhs[i];
      rhs[k] = acc;
    }
  }
};

/// Entries of `a` and `b` whose bits differ.
std::size_t bit_mismatches(const linalg::Vector& a, const linalg::Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      ++mismatches;
  return mismatches;
}

/// Every factor of `lu`, row-major over the band and the dense last row.
template <typename Lu>
linalg::Vector factors_of(const Lu& lu, std::size_t n, std::size_t b) {
  linalg::Vector out;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i + 1 == n || (i > j ? i - j : j - i) <= b)
        out.push_back(lu.factor(i, j));
  return out;
}

/// A seeded random chain on the radius neighbourhoods of a city map (radius
/// in grid spacings): every stored transition draws a weight in
/// [0.05, 1.05), then each row is normalized.
SparseMatrix random_city_chain(std::size_t m, double radius,
                               std::uint64_t seed) {
  geometry::CityConfig cfg;
  cfg.count = m;
  cfg.seed = seed;
  const geometry::Topology topo = geometry::city_topology(cfg);
  SparseMatrix p(linalg::SparsityPattern::from_rows(
      m, geometry::radius_neighbors(topo, radius * cfg.spacing)));
  util::Rng rng(seed);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t begin = p.row_offsets()[i], end = p.row_offsets()[i + 1];
    double sum = 0.0;
    for (std::size_t e = begin; e < end; ++e) {
      p.values()[e] = 0.05 + rng.uniform();
      sum += p.values()[e];
    }
    for (std::size_t e = begin; e < end; ++e) p.values()[e] /= sum;
  }
  return p;
}

TEST(BandedResolventLu, EnvelopeMatchesFullBandEliminationBitForBit) {
  for (const std::size_t m : {196u, 512u, 1024u}) {
    for (const double radius : {1.6, 2.0, 3.0}) {
      SCOPED_TRACE(testing::Message() << "M = " << m << ", radius " << radius);
      const SparseMatrix p = random_city_chain(m, radius, m + 7);
      const linalg::BandOrdering& order = p.pattern().band_ordering();
      const linalg::Vector c(m, 1.0 / static_cast<double>(m));
      linalg::Vector c_perm(m);
      for (std::size_t a = 0; a < m; ++a) c_perm[a] = c[order.perm[a]];

      const FullBandLu ref = FullBandLu::factor_of(p, c_perm, order.bandwidth,
                                                   order.position);
      const auto lu = BandedResolventLu::try_factor(
          p, c_perm, order.bandwidth, order.position);
      ASSERT_TRUE(lu.ok()) << lu.status().message();
      EXPECT_LT(lu->envelope_size(), m * order.bandwidth);
      EXPECT_EQ(bit_mismatches(factors_of(*lu, m, order.bandwidth),
                               factors_of(ref, m, order.bandwidth)),
                0u);

      // π and G·v through the ladder against the same steps on the
      // reference factors: try_stationary's transposed solve and
      // normalization, banded_apply's Sherman–Morrison correction.
      const auto ladder = SparseResolvent::try_factor(p, c);
      ASSERT_TRUE(ladder.ok()) << ladder.status().message();
      ASSERT_TRUE(ladder->banded());

      linalg::Vector y = c_perm;
      ref.solve_transposed(y);
      linalg::Vector pi(m);
      for (std::size_t a = 0; a < m; ++a) pi[order.perm[a]] = y[a];
      double mass = 0.0;
      for (double x : pi) mass += x;
      for (double& x : pi) x /= mass;
      EXPECT_EQ(bit_mismatches(test::unwrap(ladder->try_stationary()), pi),
                0u);

      linalg::Vector w(m, 1.0);
      w[m - 1] = 0.0;
      ref.solve(w);
      double denom = 1.0;
      for (std::size_t a = 0; a < m; ++a) denom += c_perm[a] * w[a];
      util::Rng rng(m);
      linalg::Vector v(m);
      for (double& x : v) x = rng.uniform(-1.0, 1.0);
      linalg::Vector x(m);
      for (std::size_t a = 0; a < m; ++a) x[a] = v[order.perm[a]];
      ref.solve(x);
      double cg = 0.0;
      for (std::size_t a = 0; a < m; ++a) cg += c_perm[a] * x[a];
      const double scale = cg / denom;
      for (std::size_t a = 0; a < m; ++a) x[a] -= scale * w[a];
      linalg::Vector gv(m);
      for (std::size_t a = 0; a < m; ++a) gv[order.perm[a]] = x[a];
      EXPECT_EQ(bit_mismatches(test::unwrap(ladder->try_apply(v)), gv), 0u);
    }
  }
}

TEST(BandedResolventLu, NegativePivotKeepsTheFullBandsSignedZeros) {
  // The pivots of an irreducible I − P are positive; p_00 = 2 makes the
  // first one −1. Past the envelope, column 0's multipliers are then
  // +0.0 / −1 = −0.0 in the full-band elimination, and must stay so.
  const std::size_t n = 12, b = 3;
  linalg::Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.5;
    if (i > 0) m(i, i - 1) = i + 1 == n ? 0.5 : 0.25;
    if (i + 1 < n) m(i, i + 1) = i == 0 ? 0.5 : 0.25;
  }
  m(0, 0) = 2.0;
  const SparseMatrix sp = SparseMatrix::from_dense(m);
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));
  const auto lu = BandedResolventLu::try_factor(sp, c, b);
  ASSERT_TRUE(lu.ok()) << lu.status().message();
  EXPECT_TRUE(std::signbit(lu->factor(2, 0)));
  EXPECT_EQ(bit_mismatches(factors_of(*lu, n, b),
                           factors_of(FullBandLu::factor_of(sp, c, b, {}), n,
                                      b)),
            0u);
}

TEST(BandedResolventLu, KernelsGiveTheSameFactorsBitForBit) {
  if (!BandedResolventLu::avx2_available())
    GTEST_SKIP() << "this CPU has no AVX2";
  using Kernel = BandedResolventLu::Kernel;
  for (const std::size_t m : {196u, 1024u}) {
    for (const double radius : {1.6, 3.0}) {
      SCOPED_TRACE(testing::Message() << "M = " << m << ", radius " << radius);
      const SparseMatrix p = random_city_chain(m, radius, m + 11);
      const linalg::BandOrdering& order = p.pattern().band_ordering();
      const linalg::Vector c(m, 1.0 / static_cast<double>(m));
      const auto baseline = BandedResolventLu::try_factor(
          p, c, order.bandwidth, order.position, Kernel::kBaseline);
      const auto avx2 = BandedResolventLu::try_factor(
          p, c, order.bandwidth, order.position, Kernel::kAvx2);
      ASSERT_TRUE(baseline.ok() && avx2.ok());
      EXPECT_EQ(bit_mismatches(factors_of(*baseline, m, order.bandwidth),
                               factors_of(*avx2, m, order.bandwidth)),
                0u);
      linalg::Vector x = c, x_avx2 = c;
      baseline->solve_transposed_inplace(x);
      avx2->solve_transposed_inplace(x_avx2);
      EXPECT_EQ(bit_mismatches(x, x_avx2), 0u);
    }
  }
}

/// max |x − ref| over ‖ref‖∞ (at least 1).
double relative_gap(const linalg::Vector& x, const linalg::Vector& ref) {
  double gap = 0.0, scale = 1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    gap = std::max(gap, std::abs(x[i] - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return gap / scale;
}

/// Solves B x = rhs and Bᵀ x = rhs with `lu` and with the dense LU of
/// B = I − P_band + e_{n−1}cᵀ, P_band being P in band order, and returns
/// the larger relative gap.
double gap_to_dense(const BandedResolventLu& lu, const linalg::Matrix& p_band,
                    const linalg::Vector& c, std::uint64_t seed) {
  const std::size_t n = c.size();
  linalg::Matrix b = linalg::Matrix::identity(n) - p_band;
  for (std::size_t j = 0; j < n; ++j) b(n - 1, j) += c[j];
  util::Rng rng(seed);
  linalg::Vector rhs(n);
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
  linalg::Vector x = rhs, xt = rhs;
  lu.solve_inplace(x);
  lu.solve_transposed_inplace(xt);
  return std::max(relative_gap(x, test::unwrap(linalg::try_solve(b, rhs))),
                  relative_gap(xt, test::unwrap(linalg::try_solve(
                                       b.transposed(), rhs))));
}

TEST(BandedResolventLu, EnvelopeFarNarrowerThanTheBandMatchesDense) {
  // A lazy walk on a path laid out by an explicit position (node i sits at
  // band position 7i mod n), plus one long edge between positions 60 and
  // 100: bandwidth 40, but only the rows between the two ends reach far.
  const std::size_t n = 120, b = 40;
  std::vector<std::size_t> position(n), perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    position[i] = (7 * i) % n;
    perm[position[i]] = i;
  }
  util::Rng rng(53);
  linalg::Matrix p_band(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::size_t> next;
    if (a > 0) next.push_back(a - 1);
    if (a + 1 < n) next.push_back(a + 1);
    if (a == 60) next.push_back(100);
    if (a == 100) next.push_back(60);
    p_band(a, a) = 0.5;
    double sum = 0.0;
    for (std::size_t j : next) sum += (p_band(a, j) = 0.1 + rng.uniform());
    for (std::size_t j : next) p_band(a, j) *= 0.5 / sum;
  }
  linalg::Matrix m(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t a2 = 0; a2 < n; ++a2) m(perm[a], perm[a2]) = p_band(a, a2);
  const SparseMatrix sp = SparseMatrix::from_dense(m);
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));

  const auto lu = BandedResolventLu::try_factor(sp, c, b, position);
  ASSERT_TRUE(lu.ok()) << lu.status().message();
  // Σ (extent − k): 40·41/2 for rows 60..99 and one per other row, against
  // about n·b over the band.
  EXPECT_EQ(lu->envelope_size(), 40u * 41u / 2u + (n - 1 - 40));
  EXPECT_LT(lu->envelope_size() * 4, n * b);
  EXPECT_LE(gap_to_dense(*lu, p_band, c, 59), 1e-12);
}

TEST(BandedResolventLu, FillCarriesRowsPastTheirStoredEntries) {
  // A non-reversible walk on a path with two one-way jumps: 10 -> 30 fills
  // U rows 11..29 out to column 30, which none of them stores, and
  // 45 -> 35 fills L columns 36..44 down to row 45.
  const std::size_t n = 60, b = 20;
  util::Rng rng(61);
  linalg::Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> next;
    if (i > 0) next.push_back(i - 1);
    if (i + 1 < n) next.push_back(i + 1);
    if (i == 10) next.push_back(30);
    if (i == 45) next.push_back(35);
    m(i, i) = 0.3;
    double sum = 0.0;
    for (std::size_t j : next) sum += (m(i, j) = 0.1 + rng.uniform());
    for (std::size_t j : next) m(i, j) *= 0.7 / sum;
  }
  const SparseMatrix sp = SparseMatrix::from_dense(m);
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));

  const auto lu = BandedResolventLu::try_factor(sp, c, b);
  ASSERT_TRUE(lu.ok()) << lu.status().message();
  EXPECT_EQ(sp.at(11, 30), 0.0);
  EXPECT_NE(lu->factor(11, 30), 0.0);
  EXPECT_NE(lu->factor(20, 30), 0.0);
  EXPECT_EQ(sp.at(45, 36), 0.0);
  EXPECT_NE(lu->factor(45, 36), 0.0);
  EXPECT_NE(lu->factor(45, 40), 0.0);
  EXPECT_LE(gap_to_dense(*lu, m, c, 67), 1e-12);
}

}  // namespace
}  // namespace mocos::sparse
