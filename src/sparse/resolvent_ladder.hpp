#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/util/status.hpp"

namespace mocos::sparse {

/// The sparse ladder's factorization of the resolvent system
/// A = I − P + 𝟙cᵀ. One factorization serves the stationary distribution
/// (one transposed solve), products G v with G = A⁻¹ (one solve each) and
/// the dense G (one solve per column). The rungs:
///  1. RCM reordering + banded LU of the anchored system B = I − P + e_{n−1}cᵀ
///     with one Sherman–Morrison correction (skipped when the bandwidth
///     exceeds the cap, demoted on factorization failure);
///  2. Jacobi-preconditioned BiCGSTAB on the full rank-one-corrected
///     operator, one Krylov solve per right-hand side.
/// A non-ok status from any member means the rung failed and the caller
/// should run the dense factorization.
class SparseResolvent {
 public:
  [[nodiscard]] static util::StatusOr<SparseResolvent> try_factor(
      const linalg::SparseMatrix& p, const linalg::Vector& c);

  /// True on the banded rung, false on the iterative (BiCGSTAB) one.
  [[nodiscard]] bool banded() const { return lu_.has_value(); }

  /// π with πᵀ = cᵀG, normalized to unit mass: B⁻ᵀc on the banded rung
  /// (πᵀB = π_{n−1}cᵀ), Aᵀy = c on the iterative one. Non-finite results
  /// come back as kNonFiniteValue.
  [[nodiscard]] util::StatusOr<linalg::Vector> try_stationary() const;

  /// G v.
  [[nodiscard]] util::StatusOr<linalg::Vector> try_apply(
      const linalg::Vector& v) const;

  /// The dense resolvent G, one solve per column.
  [[nodiscard]] util::StatusOr<linalg::Matrix> try_inverse() const;

 private:
  SparseResolvent() = default;

  /// Banded rung: G x = B⁻¹x − w(cᵀB⁻¹x)/denom, in RCM order.
  void banded_apply(linalg::Vector& x_perm) const;

  linalg::Vector c_;                // the reference row, caller's order
  linalg::SparseMatrix p_;          // iterative rung: the chain
  // Banded rung (empty lu_ on the iterative rung), all in RCM order.
  std::vector<std::size_t> perm_;   // RCM position -> caller index
  linalg::Vector c_perm_;
  std::optional<BandedResolventLu> lu_;
  linalg::Vector w_;                // B⁻¹(𝟙 − e_{n−1})
  double denom_ = 1.0;              // 1 + cᵀw
};

}  // namespace mocos::sparse
