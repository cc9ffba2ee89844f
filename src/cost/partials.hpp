#pragma once

#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::cost {

/// Partial derivatives of a scalar cost U(π, Z, P) with respect to each
/// argument, holding the others fixed — the raw ingredients of the paper's
/// Eq. 10 before the Markov-chain chain rule is applied.
///
/// Cost terms *accumulate* into a shared Partials so a composite cost makes a
/// single chain-rule pass. ∂U/∂P lives on P's pattern: a transition the chain
/// cannot take has no derivative the descent could follow. A cost whose
/// terms never read Z builds it without the ∂U/∂Z buffer (`with_z` false),
/// which then stays empty.
struct Partials {
  /// Buffers for a chain over `p`'s pattern.
  explicit Partials(const markov::TransitionMatrix& p, bool with_z = true);
  /// Buffers for an n-state chain over every transition.
  explicit Partials(std::size_t n, bool with_z = true);

  linalg::Vector du_dpi;       // ∂U/∂π_i
  linalg::Matrix du_dz;        // ∂U/∂z_ij; empty when built without it
  linalg::SparseMatrix du_dp;  // ∂U/∂p_ij on P's pattern (direct only)

  std::size_t size() const { return du_dpi.size(); }

  /// du_dp's values, slot for slot with `p`'s stored entries;
  /// std::invalid_argument unless du_dp is on `p`'s pattern.
  std::vector<double>& dp_on(const markov::TransitionMatrix& p);

  Partials& operator+=(const Partials& rhs);

  /// Zeroes the buffers in place (no reallocation) so a probe loop —
  /// e.g. CompositeCost::partials_into — can reuse one Partials across
  /// iterations.
  void clear();
};

}  // namespace mocos::cost
