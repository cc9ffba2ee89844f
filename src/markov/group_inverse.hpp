#pragma once

#include "src/linalg/matrix.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// Group generalized inverse A# of A = I - P for an ergodic chain
/// (Meyer 1975, the paper's §III-B). Computed as A# = Z - W, which satisfies
/// the defining axioms A A# A = A, A# A A# = A#, A A# = A# A, and the paper's
/// Eqs. (5) and (7): W = I - A A#, Z = I + P A#.
[[nodiscard]] linalg::Matrix group_inverse(const linalg::Matrix& p,
                                           const linalg::Vector& pi);

/// group_inverse throws util::StatusError with this variant's status: the
/// structured kSingularMatrix / kNonFiniteValue status of the underlying
/// try_fundamental_matrix inversion.
[[nodiscard]] util::StatusOr<linalg::Matrix> try_group_inverse(
    const linalg::Matrix& p, const linalg::Vector& pi);

/// Checks the three group-inverse axioms to tolerance `tol`. Exposed so the
/// property-test suite (and any user validating a hand-built chain) can
/// verify a candidate inverse.
[[nodiscard]] bool satisfies_group_inverse_axioms(const linalg::Matrix& a,
                                                  const linalg::Matrix& g,
                                                  double tol);

}  // namespace mocos::markov
