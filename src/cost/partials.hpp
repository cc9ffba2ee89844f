#pragma once

#include "src/linalg/matrix.hpp"

namespace mocos::cost {

/// Partial derivatives of a scalar cost U(π, Z, P) with respect to each
/// argument, holding the others fixed — the raw ingredients of the paper's
/// Eq. 10 before the Markov-chain chain rule is applied.
///
/// Cost terms *accumulate* into a shared Partials so a composite cost makes a
/// single chain-rule pass. A cost whose terms never read Z builds it
/// without the ∂U/∂Z buffer (`with_z` false), which then stays empty.
struct Partials {
  explicit Partials(std::size_t n, bool with_z = true)
      : du_dpi(n, 0.0),
        du_dz(with_z ? n : 0, with_z ? n : 0, 0.0),
        du_dp(n, n, 0.0) {}

  linalg::Vector du_dpi;  // ∂U/∂π_i
  linalg::Matrix du_dz;   // ∂U/∂z_ij; empty when built without it
  linalg::Matrix du_dp;   // ∂U/∂p_ij (the direct dependence only)

  std::size_t size() const { return du_dpi.size(); }

  Partials& operator+=(const Partials& rhs);

  /// Zeroes the buffers in place (no reallocation) so a probe loop —
  /// e.g. CompositeCost::partials_into — can reuse one Partials across
  /// iterations.
  void clear();
};

}  // namespace mocos::cost
