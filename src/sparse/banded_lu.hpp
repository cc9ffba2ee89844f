#pragma once

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::sparse {

/// Banded LU factorization of the anchored resolvent system
///
///   B = I − P + e_{n−1} cᵀ
///
/// for a bandwidth-ordered sparse P (rows 0..n−2 banded, last row dense —
/// the rank-one anchor e_{n−1}cᵀ adds c to the last row only, so it creates
/// no fill outside that row: nothing is eliminated after it). B is
/// nonsingular for every irreducible row-stochastic P with π_{n−1} > 0, and
/// the full resolvent G = (I − P + 𝟙cᵀ)⁻¹ follows from B⁻¹ by one
/// Sherman–Morrison correction (see SparseResolvent).
///
/// Pivoting: none — I − P is irreducibly weakly diagonally dominant, for
/// which elimination in natural order is stable (GTH-style); a vanishing
/// pivot is reported as kSingularMatrix instead of being permuted around,
/// and the caller drops to the iterative or dense rung.
///
/// Envelope: row k of U, and column k of L, can hold a nonzero no further
/// than extent(k), the largest of k and, over the rows r ≤ k, the last
/// column row r of P stores and the last band row column r stores. Fill
/// never carries a row past the extents of the rows that eliminate into
/// it, so every cell beyond holds +0.0 throughout, and the elimination and
/// the solves stop at extent(k) instead of k + b. What they skip is
/// x − y·(+0.0) with finite y, which leaves every x but −0.0 unchanged,
/// and, under a positive pivot, divisions that would store +0.0 over +0.0.
/// The band and the last row never hold −0.0 where the elimination skips,
/// so the factors are the full-band elimination's bit for bit. A solve's
/// accumulator is −0.0 only where rhs held −0.0; only then may an
/// exactly-zero entry of its result differ from the full-band solve's, in
/// sign (DESIGN.md §12.2).
///
/// Costs: Σ_k r_k·(extent(k) − k) multiply–subtracts to factor, r_k being
/// the rows below pivot k with a nonzero multiplier, and O(envelope_size())
/// per solve — against Σ_k r_k·b = O(n·b²) and O(n·b) over the full band,
/// and O(n³)/O(n²) dense.
class BandedResolventLu {
 public:
  /// Which build of the elimination runs. It is compiled from one source
  /// for the baseline instruction set and, on x86-64, for AVX2 (four
  /// doubles per vmulpd/vsubpd, no FMA), and both round every lane alike,
  /// so the factors are the same bits. kAuto takes AVX2 when the CPU has
  /// it, decided once per process.
  enum class Kernel { kAuto, kBaseline, kAvx2 };

  /// Whether Kernel::kAvx2 can run on this CPU.
  [[nodiscard]] static bool avx2_available();

  /// Factors B for P reordered by `position` (original index -> band
  /// position; empty keeps P's own order) and the anchor row c, given in
  /// band order. Each entry p_ij is scattered straight into the band at
  /// (position[i], position[j]), so no permuted copy of P is built.
  /// `bandwidth` must bound |position[i] − position[j]| over every stored
  /// entry outside the last band row (checked; violations return
  /// kInvalidConfig, as does kAvx2 on a CPU without AVX2).
  [[nodiscard]] static util::StatusOr<BandedResolventLu> try_factor(
      const linalg::SparseMatrix& p, const linalg::Vector& c,
      std::size_t bandwidth, const std::vector<std::size_t>& position = {},
      Kernel kernel = Kernel::kAuto);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t bandwidth() const { return b_; }
  /// Σ over band rows k of extent(k) − k: the off-diagonal cells of U a
  /// solve visits (and of L, on a structurally symmetric P). The full band
  /// has about n·b.
  [[nodiscard]] std::size_t envelope_size() const;

  /// The stored factor at band position (i, j), both < size(): L's
  /// multiplier below the diagonal (its unit diagonal is implied), U on
  /// and above it, the dense last row's entry for i = n − 1, and 0.0
  /// outside the band.
  [[nodiscard]] double factor(std::size_t i, std::size_t j) const;

  /// Solves B x = rhs in place (forward + back substitution).
  void solve_inplace(linalg::Vector& rhs) const;

  /// Solves Bᵀ x = rhs in place with the same factors (Uᵀ forward, then
  /// Lᵀ back). Since πᵀB = π_{n−1}cᵀ, the stationary distribution is B⁻ᵀc
  /// up to scale.
  void solve_transposed_inplace(linalg::Vector& rhs) const;

 private:
  BandedResolventLu() = default;

  [[nodiscard]] double& band(std::size_t i, std::size_t j) {
    return band_[i * (2 * b_ + 1) + (j + b_ - i)];
  }
  [[nodiscard]] double band(std::size_t i, std::size_t j) const {
    return band_[i * (2 * b_ + 1) + (j + b_ - i)];
  }

  std::size_t n_ = 0;
  std::size_t b_ = 0;
  std::vector<double> band_;          // rows 0..n−2, cols within [i−b, i+b]
  linalg::Vector last_row_;           // dense row n−1 of the LU factors
  std::vector<std::size_t> extent_;   // rows 0..n−2: extent(k), ≤ k + b
};

}  // namespace mocos::sparse
