#include "src/sparse/resolvent_ladder.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "src/linalg/guard.hpp"
#include "src/sparse/resolvent_solver.hpp"

namespace mocos::sparse {

namespace {

/// Sherman–Morrison denominators below this are treated as a failed direct
/// rung (the anchored system sits too close to the 𝟙cᵀ null direction).
constexpr double kAnchorDenominatorFloor = 1e-8;

/// The banded direct rung only runs when the RCM bandwidth b satisfies
/// b <= n * kBandwidthCapFraction; beyond that O(n·b²) loses to the
/// iterative rung.
constexpr double kBandwidthCapFraction = 1.0 / 3.0;

}  // namespace

util::StatusOr<SparseResolvent> SparseResolvent::try_factor(
    const linalg::SparseMatrix& p, const linalg::Vector& c) {
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || c.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "SparseResolvent: need square P (n >= 2) and a "
                        "matching reference vector");
  SparseResolvent res;
  res.c_ = c;

  // --- Rung 1: RCM + anchored banded LU + Sherman–Morrison. --------------
  // The ordering is a property of P's pattern, computed once per pattern.
  const linalg::BandOrdering& order = p.pattern().band_ordering();
  const double n_real = static_cast<double>(n);
  const auto cap = static_cast<std::size_t>(kBandwidthCapFraction * n_real);
  if (order.bandwidth <= cap) {
    linalg::Vector c_perm(n);
    for (std::size_t a = 0; a < n; ++a) c_perm[a] = c[order.perm[a]];

    util::StatusOr<BandedResolventLu> lu = BandedResolventLu::try_factor(
        p, c_perm, order.bandwidth, order.position);
    if (lu.ok()) {
      // G = B⁻¹ − w(cᵀB⁻¹·)/denom with w = B⁻¹(𝟙 − e_{n−1}) and
      // denom = 1 + cᵀw.
      linalg::Vector w(n, 1.0);
      w[n - 1] = 0.0;
      lu->solve_inplace(w);
      double denom = 1.0;
      for (std::size_t i = 0; i < n; ++i) denom += c_perm[i] * w[i];
      if (std::isfinite(denom) && std::abs(denom) > kAnchorDenominatorFloor) {
        res.perm_ = order.perm;
        res.c_perm_ = std::move(c_perm);
        res.lu_ = std::move(*lu);
        res.w_ = std::move(w);
        res.denom_ = denom;
        return res;
      }
    }
    // Factorization or correction failed: demote to the iterative rung.
  }

  // --- Rung 2: BiCGSTAB on the full rank-one operator, per solve. --------
  res.p_ = p;
  return res;
}

void SparseResolvent::banded_apply(linalg::Vector& x_perm) const {
  lu_->solve_inplace(x_perm);
  double cg = 0.0;
  for (std::size_t i = 0; i < x_perm.size(); ++i) cg += c_perm_[i] * x_perm[i];
  const double scale = cg / denom_;
  for (std::size_t i = 0; i < x_perm.size(); ++i) x_perm[i] -= scale * w_[i];
}

util::StatusOr<linalg::Vector> SparseResolvent::try_stationary() const {
  const std::size_t n = c_.size();
  linalg::Vector pi(n, 0.0);
  if (lu_) {
    linalg::Vector y = c_perm_;
    lu_->solve_transposed_inplace(y);
    for (std::size_t a = 0; a < n; ++a) pi[perm_[a]] = y[a];
  } else {
    // πᵀA = cᵀ: one Krylov solve with Aᵀ.
    const ResolventOperator op{&p_, linalg::Vector(n, 1.0), c_};
    util::StatusOr<linalg::Vector> y =
        try_solve_resolvent(op, c_, nullptr, /*transpose=*/true);
    if (!y.ok()) return y.status();
    pi = std::move(*y);
  }
  double sum = 0.0;
  for (double x : pi) sum += x;
  for (double& x : pi) x /= sum;
  util::Status finite = util::check_finite(pi, "sparse resolvent pi");
  if (!finite.is_ok()) return finite;
  return pi;
}

util::StatusOr<linalg::Vector> SparseResolvent::try_apply(
    const linalg::Vector& v) const {
  const std::size_t n = c_.size();
  if (v.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "SparseResolvent::try_apply: size mismatch");
  if (!lu_) {
    const ResolventOperator op{&p_, linalg::Vector(n, 1.0), c_};
    return try_solve_resolvent(op, v);
  }
  linalg::Vector x(n);
  for (std::size_t a = 0; a < n; ++a) x[a] = v[perm_[a]];
  banded_apply(x);
  linalg::Vector out(n);
  for (std::size_t a = 0; a < n; ++a) out[perm_[a]] = x[a];
  util::Status finite = util::check_finite(out, "banded resolvent product");
  if (!finite.is_ok()) return finite;
  return out;
}

util::StatusOr<linalg::Matrix> SparseResolvent::try_inverse() const {
  const std::size_t n = c_.size();
  if (lu_) {
    linalg::Matrix g_perm(n, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      linalg::Vector col(n, 0.0);
      col[j] = 1.0;
      banded_apply(col);
      for (std::size_t i = 0; i < n; ++i) g_perm(i, j) = col[i];
    }
    util::Status finite = util::check_finite(g_perm, "banded resolvent");
    if (!finite.is_ok()) return finite;
    linalg::Matrix g(n, n);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) g(perm_[a], perm_[b]) = g_perm(a, b);
    return g;
  }

  const ResolventOperator op{&p_, linalg::Vector(n, 1.0), c_};
  linalg::Matrix g(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    linalg::Vector e(n, 0.0);
    e[j] = 1.0;
    // G e_j solves (I − P + 𝟙cᵀ) x = e_j.
    util::StatusOr<linalg::Vector> x = try_solve_resolvent(op, e);
    if (!x.ok()) return x.status();
    for (std::size_t i = 0; i < n; ++i) g(i, j) = (*x)[i];
  }
  util::Status finite = util::check_finite(g, "iterative resolvent");
  if (!finite.is_ok()) return finite;
  return g;
}

}  // namespace mocos::sparse
