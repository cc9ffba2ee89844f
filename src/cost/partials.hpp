#pragma once

#include "src/linalg/matrix.hpp"

namespace mocos::cost {

/// Partial derivatives of a scalar cost U(π, Z, P) with respect to each
/// argument, holding the others fixed — the raw ingredients of the paper's
/// Eq. 10 before the Markov-chain chain rule is applied.
///
/// Cost terms *accumulate* into a shared Partials so a composite cost makes a
/// single chain-rule pass.
struct Partials {
  explicit Partials(std::size_t n)
      : du_dpi(n, 0.0), du_dz(n, n, 0.0), du_dp(n, n, 0.0) {}

  linalg::Vector du_dpi;  // ∂U/∂π_i
  linalg::Matrix du_dz;   // ∂U/∂z_ij
  linalg::Matrix du_dp;   // ∂U/∂p_ij (the direct dependence only)

  std::size_t size() const { return du_dpi.size(); }

  Partials& operator+=(const Partials& rhs);

  /// Zeroes all three buffers in place (no reallocation) so a probe loop —
  /// e.g. CompositeCost::partials_into — can reuse one Partials across
  /// iterations.
  void clear();
};

}  // namespace mocos::cost
