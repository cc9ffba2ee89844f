#include "src/sparse/banded_lu.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace mocos::sparse {

namespace {
/// Elimination pivots of I − P shrink toward 0 as the trailing submatrix
/// approaches singularity (a nearly reducible chain); below this floor the
/// factorization is meaningless and the caller should fall back.
constexpr double kPivotFloor = 1e-12;
}  // namespace

util::StatusOr<BandedResolventLu> BandedResolventLu::try_factor(
    const linalg::SparseMatrix& p, const linalg::Vector& c,
    std::size_t bandwidth, const std::vector<std::size_t>& position) {
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || c.size() != n ||
      (!position.empty() && position.size() != n))
    return util::Status(util::StatusCode::kSizeMismatch,
                        "BandedResolventLu: need square P (n >= 2) and "
                        "matching anchor row and ordering");
  BandedResolventLu lu;
  lu.n_ = n;
  lu.b_ = std::min(bandwidth, n - 1);
  const std::size_t b = lu.b_;
  lu.band_.assign((n - 1) * (2 * b + 1), 0.0);
  lu.last_row_.assign(n, 0.0);

  // Scatter B = I − P + e_{n−1}cᵀ into the band + dense last row, in band
  // order. Every stored entry lands in its own cell, so the scatter order
  // does not matter.
  const auto at = [&](std::size_t i) {
    return position.empty() ? i : position[i];
  };
  for (std::size_t a = 0; a + 1 < n; ++a) lu.band(a, a) = 1.0;
  for (std::size_t j = 0; j < n; ++j)
    lu.last_row_[j] = (j + 1 == n ? 1.0 : 0.0) + c[j];
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& vals = p.values();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = at(i);
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::size_t j = at(cols[e]);
      if (a + 1 == n) {
        lu.last_row_[j] -= vals[e];
        continue;
      }
      const std::size_t dist = a > j ? a - j : j - a;
      if (dist > b)
        return util::Status(
            util::StatusCode::kInvalidConfig,
            "BandedResolventLu: entry (" + std::to_string(a) + ", " +
                std::to_string(j) + ") outside bandwidth " +
                std::to_string(b));
      lu.band(a, j) -= vals[e];
    }
  }

  // In-place LU, natural order. Fill stays within the band (classic banded
  // property) plus the dense last row, which is eliminated against every
  // column but eliminates nothing itself.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double pivot = lu.band(k, k);
    if (!(std::abs(pivot) > kPivotFloor) || !std::isfinite(pivot))
      return util::Status(util::StatusCode::kSingularMatrix,
                          "BandedResolventLu: pivot " + std::to_string(pivot) +
                              " at column " + std::to_string(k));
    const std::size_t row_end = std::min(k + b, n - 2);
    const std::size_t col_end = std::min(k + b, n - 1);
    for (std::size_t i = k + 1; i <= row_end; ++i) {
      const double l = lu.band(i, k) / pivot;
      lu.band(i, k) = l;
      // mocos-lint: allow(float-eq)
      if (l == 0.0) continue;  // exact: structural zero below the pivot
      for (std::size_t j = k + 1; j <= col_end; ++j)
        lu.band(i, j) -= l * lu.band(k, j);
    }
    const double l_last = lu.last_row_[k] / pivot;
    lu.last_row_[k] = l_last;
    // mocos-lint: allow(float-eq)
    if (l_last != 0.0) {
      for (std::size_t j = k + 1; j <= col_end; ++j)
        lu.last_row_[j] -= l_last * lu.band(k, j);
    }
  }
  const double last_pivot = lu.last_row_[n - 1];
  if (!(std::abs(last_pivot) > kPivotFloor) || !std::isfinite(last_pivot))
    return util::Status(util::StatusCode::kSingularMatrix,
                        "BandedResolventLu: final pivot " +
                            std::to_string(last_pivot));
  return lu;
}

void BandedResolventLu::solve_inplace(linalg::Vector& rhs) const {
  const std::size_t n = n_;
  const std::size_t b = b_;
  // Forward substitution with unit-lower L (band rows + the dense last row).
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double xk = rhs[k];
    // mocos-lint: allow(float-eq)
    if (xk != 0.0) {
      const std::size_t row_end = std::min(k + b, n - 2);
      for (std::size_t i = k + 1; i <= row_end; ++i)
        rhs[i] -= band(i, k) * xk;
      rhs[n - 1] -= last_row_[k] * xk;
    }
  }
  // Back substitution with U.
  rhs[n - 1] /= last_row_[n - 1];
  for (std::size_t k = n - 1; k-- > 0;) {
    double acc = rhs[k];
    const std::size_t col_end = std::min(k + b, n - 1);
    for (std::size_t j = k + 1; j <= col_end; ++j)
      acc -= band(k, j) * rhs[j];
    rhs[k] = acc / band(k, k);
  }
}

void BandedResolventLu::solve_transposed_inplace(linalg::Vector& rhs) const {
  const std::size_t n = n_;
  const std::size_t b = b_;
  // Forward substitution with Uᵀ: row k of U holds the band of rows
  // 0..n−2 (columns k..k+b) and the last pivot last_row_[n−1].
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double xk = rhs[k] / band(k, k);
    rhs[k] = xk;
    // mocos-lint: allow(float-eq)
    if (xk != 0.0) {
      const std::size_t col_end = std::min(k + b, n - 1);
      for (std::size_t j = k + 1; j <= col_end; ++j)
        rhs[j] -= band(k, j) * xk;
    }
  }
  rhs[n - 1] /= last_row_[n - 1];
  // Back substitution with the unit-upper Lᵀ: column k of L holds the band
  // rows k+1..k+b and the dense last row's multiplier last_row_[k].
  for (std::size_t k = n - 1; k-- > 0;) {
    double acc = rhs[k] - last_row_[k] * rhs[n - 1];
    const std::size_t row_end = std::min(k + b, n - 2);
    for (std::size_t i = k + 1; i <= row_end; ++i)
      acc -= band(i, k) * rhs[i];
    rhs[k] = acc;
  }
}

}  // namespace mocos::sparse
