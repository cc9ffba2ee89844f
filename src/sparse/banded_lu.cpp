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

/// row[0..width) −= l · pivot_row[0..width), one rounded multiply and one
/// rounded subtract per element: the elimination's update loop. The rows
/// never overlap (band rows sit 2b cells apart and width ≤ b), so the
/// compiler vectorizes it without an alias check.
[[gnu::always_inline]] inline void subtract_scaled_row(
    double* __restrict row, const double* __restrict pivot_row, double l,
    std::size_t width) {
  for (std::size_t j = 0; j < width; ++j) row[j] -= l * pivot_row[j];
}

/// In-place LU, natural order, over the band (`stride` = 2b + 1 cells per
/// row, band(i, j) at i·stride + j + b − i) and the dense last row, which
/// is eliminated against every column but eliminates nothing itself.
/// Returns n − 1 when every band pivot clears the floor, else the column
/// whose pivot does not.
[[gnu::always_inline]] inline std::size_t eliminate(double* band,
                                                    double* last_row,
                                                    const std::size_t* extent,
                                                    std::size_t n,
                                                    std::size_t b) {
  const std::size_t stride = 2 * b + 1;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double* const pivot_row = band + k * stride + b;  // band(k, k)
    const double pivot = pivot_row[0];
    if (!(std::abs(pivot) > kPivotFloor) || !std::isfinite(pivot)) return k;
    // Every multiplier of column k first, so the divisions pipeline instead
    // of each waiting on the previous row's update; no update reads them.
    // Rows past extent(k) hold +0.0 in column k, so their multiplier is
    // zero: the +0.0 already stored when the pivot is positive (as every
    // pivot of an irreducible I − P is), −0.0 otherwise.
    const std::size_t update_end = std::min(extent[k], n - 2);
    const std::size_t row_end =
        pivot > 0.0 ? update_end : std::min(k + b, n - 2);
    for (std::size_t i = k + 1; i <= row_end; ++i)
      band[i * stride + b + k - i] /= pivot;  // band(i, k)
    const std::size_t width = extent[k] - k;
    for (std::size_t i = k + 1; i <= update_end; ++i) {
      double* const row = band + i * stride + b + k - i;  // band(i, k)
      const double l = row[0];
      // mocos-lint: allow(float-eq)
      if (l == 0.0) continue;  // exact: structural zero below the pivot
      subtract_scaled_row(row + 1, pivot_row + 1, l, width);
    }
    const double l_last = last_row[k] / pivot;
    last_row[k] = l_last;
    // mocos-lint: allow(float-eq)
    if (l_last != 0.0)
      subtract_scaled_row(last_row + k + 1, pivot_row + 1, l_last, width);
  }
  return n - 1;
}

std::size_t eliminate_baseline(double* band, double* last_row,
                               const std::size_t* extent, std::size_t n,
                               std::size_t b) {
  return eliminate(band, last_row, extent, n, b);
}

#if defined(__x86_64__)
// The same source for AVX2. target("avx2") enables no FMA, so the multiply
// and the subtract stay two roundings in every lane, as in the baseline.
__attribute__((target("avx2"))) std::size_t eliminate_avx2(
    double* band, double* last_row, const std::size_t* extent, std::size_t n,
    std::size_t b) {
  return eliminate(band, last_row, extent, n, b);
}
#endif

}  // namespace

bool BandedResolventLu::avx2_available() {
#if defined(__x86_64__)
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

util::StatusOr<BandedResolventLu> BandedResolventLu::try_factor(
    const linalg::SparseMatrix& p, const linalg::Vector& c,
    std::size_t bandwidth, const std::vector<std::size_t>& position,
    Kernel kernel) {
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || c.size() != n ||
      (!position.empty() && position.size() != n))
    return util::Status(util::StatusCode::kSizeMismatch,
                        "BandedResolventLu: need square P (n >= 2) and "
                        "matching anchor row and ordering");
  if (kernel == Kernel::kAvx2 && !avx2_available())
    return util::Status(util::StatusCode::kInvalidConfig,
                        "BandedResolventLu: the AVX2 kernel needs a CPU "
                        "with AVX2");
  BandedResolventLu lu;
  lu.n_ = n;
  lu.b_ = std::min(bandwidth, n - 1);
  const std::size_t b = lu.b_;
  lu.band_.assign((n - 1) * (2 * b + 1), 0.0);
  lu.last_row_.assign(n, 0.0);
  lu.extent_.resize(n - 1);

  // Scatter B = I − P + e_{n−1}cᵀ into the band + dense last row, in band
  // order. Every stored entry lands in its own cell, so the scatter order
  // does not matter.
  const auto at = [&](std::size_t i) {
    return position.empty() ? i : position[i];
  };
  for (std::size_t a = 0; a + 1 < n; ++a) {
    lu.band(a, a) = 1.0;
    lu.extent_[a] = a;
  }
  for (std::size_t j = 0; j < n; ++j)
    lu.last_row_[j] = (j + 1 == n ? 1.0 : 0.0) + c[j];
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& vals = p.values();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = at(i);
    if (a + 1 == n) {
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
        lu.last_row_[at(cols[e])] -= vals[e];
      continue;
    }
    std::size_t first = a, last = a;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::size_t j = at(cols[e]);
      const std::size_t dist = a > j ? a - j : j - a;
      if (dist > b)
        return util::Status(
            util::StatusCode::kInvalidConfig,
            "BandedResolventLu: entry (" + std::to_string(a) + ", " +
                std::to_string(j) + ") outside bandwidth " +
                std::to_string(b));
      lu.band(a, j) -= vals[e];
      first = std::min(first, j);
      last = std::max(last, j);
    }
    // Row a of U reaches column `last`, and the columns of L from `first`
    // on reach row a.
    lu.extent_[a] = std::max(lu.extent_[a], last);
    lu.extent_[first] = std::max(lu.extent_[first], a);
  }
  // Row k is filled only by rows r < k, whose reach it then inherits.
  for (std::size_t a = 1; a + 1 < n; ++a)
    lu.extent_[a] = std::max(lu.extent_[a], lu.extent_[a - 1]);

  auto* eliminate_with = &eliminate_baseline;
#if defined(__x86_64__)
  if (kernel == Kernel::kAvx2 ||
      (kernel == Kernel::kAuto && avx2_available()))
    eliminate_with = &eliminate_avx2;
#endif
  const std::size_t failed =
      eliminate_with(lu.band_.data(), lu.last_row_.data(),
                     lu.extent_.data(), n, b);
  if (failed + 1 < n)
    return util::Status(util::StatusCode::kSingularMatrix,
                        "BandedResolventLu: pivot " +
                            std::to_string(lu.band(failed, failed)) +
                            " at column " + std::to_string(failed));
  const double last_pivot = lu.last_row_[n - 1];
  if (!(std::abs(last_pivot) > kPivotFloor) || !std::isfinite(last_pivot))
    return util::Status(util::StatusCode::kSingularMatrix,
                        "BandedResolventLu: final pivot " +
                            std::to_string(last_pivot));
  return lu;
}

std::size_t BandedResolventLu::envelope_size() const {
  std::size_t cells = 0;
  for (std::size_t k = 0; k < extent_.size(); ++k) cells += extent_[k] - k;
  return cells;
}

double BandedResolventLu::factor(std::size_t i, std::size_t j) const {
  if (i + 1 == n_) return last_row_[j];
  const std::size_t dist = i > j ? i - j : j - i;
  return dist <= b_ ? band(i, j) : 0.0;
}

void BandedResolventLu::solve_inplace(linalg::Vector& rhs) const {
  const std::size_t n = n_;
  // Forward substitution with unit-lower L (band rows + the dense last row).
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double xk = rhs[k];
    // mocos-lint: allow(float-eq)
    if (xk != 0.0) {
      const std::size_t row_end = std::min(extent_[k], n - 2);
      for (std::size_t i = k + 1; i <= row_end; ++i)
        rhs[i] -= band(i, k) * xk;
      rhs[n - 1] -= last_row_[k] * xk;
    }
  }
  // Back substitution with U.
  rhs[n - 1] /= last_row_[n - 1];
  for (std::size_t k = n - 1; k-- > 0;) {
    double acc = rhs[k];
    for (std::size_t j = k + 1; j <= extent_[k]; ++j)
      acc -= band(k, j) * rhs[j];
    rhs[k] = acc / band(k, k);
  }
}

void BandedResolventLu::solve_transposed_inplace(linalg::Vector& rhs) const {
  const std::size_t n = n_;
  // Forward substitution with Uᵀ: row k of U holds the band of rows
  // 0..n−2 (columns k..extent(k)) and the last pivot last_row_[n−1].
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double xk = rhs[k] / band(k, k);
    rhs[k] = xk;
    // mocos-lint: allow(float-eq)
    if (xk != 0.0) {
      for (std::size_t j = k + 1; j <= extent_[k]; ++j)
        rhs[j] -= band(k, j) * xk;
    }
  }
  rhs[n - 1] /= last_row_[n - 1];
  // Back substitution with the unit-upper Lᵀ: column k of L holds the band
  // rows k+1..extent(k) and the dense last row's multiplier last_row_[k].
  for (std::size_t k = n - 1; k-- > 0;) {
    double acc = rhs[k] - last_row_[k] * rhs[n - 1];
    const std::size_t row_end = std::min(extent_[k], n - 2);
    for (std::size_t i = k + 1; i <= row_end; ++i)
      acc -= band(i, k) * rhs[i];
    rhs[k] = acc;
  }
}

}  // namespace mocos::sparse
