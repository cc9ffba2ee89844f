#include "src/linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/util/fault_injection.hpp"

namespace mocos::linalg {

namespace {
constexpr double kPivotThreshold = 1e-300;
}

util::Status LuDecomposition::factor() {
  if (!lu_.is_square())
    return util::Status(util::StatusCode::kSizeMismatch,
                        "LuDecomposition: matrix not square");
  const std::size_t n = lu_.rows();
  double* a = lu_.data();

  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  pivot_sign_ = 1;

  const bool inject_singular = util::fault::fire(util::fault::Site::kLuFactor);

  diag_ = LuDiagnostics{};
  for (std::size_t k = 0; k < n; ++k) {
    double* row_k = a + k * n;
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(row_k[k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(a[r * n + k]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < kPivotThreshold || !std::isfinite(best) ||
        (inject_singular && k == n - 1)) {
      diag_.failed_column = k;
      diag_.min_pivot = best;
      return util::Status(
          util::StatusCode::kSingularMatrix,
          "LuDecomposition: singular at column " + std::to_string(k) +
              " (pivot " + std::to_string(best) + ")");
    }
    diag_.min_pivot = (k == 0) ? best : std::min(diag_.min_pivot, best);
    diag_.max_pivot = std::max(diag_.max_pivot, best);
    if (pivot != k) {
      std::swap_ranges(row_k, row_k + n, a + pivot * n);
      std::swap(perm_[k], perm_[pivot]);
      pivot_sign_ = -pivot_sign_;
    }
    const double diag = row_k[k];
    for (std::size_t r = k + 1; r < n; ++r) {
      double* row_r = a + r * n;
      const double factor = row_r[k] / diag;
      row_r[k] = factor;
      for (std::size_t c = k + 1; c < n; ++c) row_r[c] -= factor * row_k[c];
    }
  }
  diag_.rcond_estimate =
      diag_.max_pivot > 0.0 ? diag_.min_pivot / diag_.max_pivot : 0.0;
  return util::Status::ok();
}

LuDecomposition::LuDecomposition(Matrix a) : lu_(std::move(a)) {
  const util::Status status = factor();
  if (!status.is_ok()) {
    if (status == util::StatusCode::kSizeMismatch)
      throw std::invalid_argument(status.message());
    throw std::runtime_error("LuDecomposition: singular matrix");
  }
}

util::StatusOr<LuDecomposition> LuDecomposition::try_factor(Matrix a) {
  LuDecomposition lu;
  lu.lu_ = std::move(a);
  util::Status status = lu.factor();
  if (!status.is_ok()) return status;
  return lu;
}

double LuDecomposition::condition_number_1norm() const {
  // PA = LU, and a row permutation leaves every column's absolute sum
  // unchanged, so ||A||_1 = ||LU||_1, with (LU)_rc = Σ_{k ≤ min(r,c)}
  // l_rk u_kc and l_rr = 1.
  const std::size_t n = size();
  const double* a = lu_.data();
  double a_norm1 = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    double col = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      double entry = 0.0;
      for (std::size_t k = 0; k <= std::min(r, c); ++k)
        entry += (k == r ? 1.0 : a[r * n + k]) * a[k * n + c];
      col += std::abs(entry);
    }
    a_norm1 = std::max(a_norm1, col);
  }
  const Matrix inv = inverse();
  double inv_norm1 = 0.0;
  for (std::size_t c = 0; c < inv.cols(); ++c) {
    double col = 0.0;
    for (std::size_t r = 0; r < inv.rows(); ++r) col += std::abs(inv(r, c));
    inv_norm1 = std::max(inv_norm1, col);
  }
  return a_norm1 * inv_norm1;
}

Vector LuDecomposition::solve(const Vector& b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("LU::solve: size mismatch");
  const double* a = lu_.data();
  // Apply permutation, then forward substitution with unit-lower L; back
  // substitution with U then overwrites y with x entry by entry.
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = a + i * n;
    double s = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) s -= row[j] * x[j];
    x[i] = s;
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* row = a + i * n;
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= row[j] * x[j];
    x[i] = s / row[i];
  }
  return x;
}

Vector LuDecomposition::solve_transposed(const Vector& b) const {
  Vector x;
  Vector work;
  solve_transposed_into(b, x, work);
  return x;
}

void LuDecomposition::solve_transposed_into(const Vector& b, Vector& x,
                                            Vector& work) const {
  const std::size_t n = size();
  if (b.size() != n)
    throw std::invalid_argument("LU::solve_transposed: size mismatch");
  const double* a = lu_.data();
  // PA = LU gives Aᵀ = Uᵀ Lᵀ P: forward substitution with Uᵀ, back
  // substitution with the unit-upper Lᵀ, then x[perm_[i]] = y[i]. Column i
  // of the factors is a[j * n + i].
  work.resize(n);
  double* y = work.data();
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t j = 0; j < i; ++j) s -= a[j * n + i] * y[j];
    y[i] = s / a[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= a[j * n + i] * y[j];
    y[i] = s;
  }
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = y[i];
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  if (b.rows() != size())
    throw std::invalid_argument("LU::solve: row count mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector col = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = col[r];
  }
  return x;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(size()));
}

double LuDecomposition::determinant() const {
  double det = static_cast<double>(pivot_sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

Vector solve(const Matrix& a, const Vector& b) {
  return LuDecomposition(a).solve(b);
}

Matrix inverse(const Matrix& a) { return LuDecomposition(a).inverse(); }

double determinant(const Matrix& a) {
  return LuDecomposition(a).determinant();
}

util::StatusOr<Vector> try_solve(const Matrix& a, const Vector& b) {
  if (b.size() != a.rows())
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_solve: size mismatch");
  util::StatusOr<LuDecomposition> lu = LuDecomposition::try_factor(a);
  if (!lu.ok()) return lu.status();
  return lu->solve(b);
}

util::StatusOr<Matrix> try_inverse(const Matrix& a) {
  util::StatusOr<LuDecomposition> lu = LuDecomposition::try_factor(a);
  if (!lu.ok()) return lu.status();
  return lu->inverse();
}

}  // namespace mocos::linalg
