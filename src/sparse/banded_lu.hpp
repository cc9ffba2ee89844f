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
/// Costs: O(n·b²) factor, O(n·b) per solve — against O(n³)/O(n²) dense.
class BandedResolventLu {
 public:
  /// Factors B for P reordered by `position` (original index -> band
  /// position; empty keeps P's own order) and the anchor row c, given in
  /// band order. Each entry p_ij is scattered straight into the band at
  /// (position[i], position[j]), so no permuted copy of P is built.
  /// `bandwidth` must bound |position[i] − position[j]| over every stored
  /// entry outside the last band row (checked; violations return
  /// kInvalidConfig).
  [[nodiscard]] static util::StatusOr<BandedResolventLu> try_factor(
      const linalg::SparseMatrix& p, const linalg::Vector& c,
      std::size_t bandwidth, const std::vector<std::size_t>& position = {});

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t bandwidth() const { return b_; }

  /// Solves B x = rhs in place (forward + back substitution), O(n·b).
  void solve_inplace(linalg::Vector& rhs) const;

  /// Solves Bᵀ x = rhs in place with the same factors (Uᵀ forward, then
  /// Lᵀ back), O(n·b). Since πᵀB = π_{n−1}cᵀ, the stationary distribution
  /// is B⁻ᵀc up to scale.
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
  std::vector<double> band_;     // rows 0..n−2, cols within [i−b, i+b]
  linalg::Vector last_row_;      // dense row n−1 of the LU factors
};

}  // namespace mocos::sparse
