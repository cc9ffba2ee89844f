#pragma once

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::cost {

/// Orthogonal projection of a gradient matrix onto the subspace of matrices
/// whose rows each sum to zero (Eq. 11):
///
///   Π_ij = U_ij − (Σ_k U_ik)/M.
///
/// Moving P along −Π keeps every row sum of P equal to 1, so the iterate
/// stays a (sub)stochastic matrix as long as the step also respects the
/// entrywise bounds (handled by descent/step_bounds).
linalg::Matrix project_row_sum_zero(const linalg::Matrix& grad);

/// The same projection on P's pattern: per row, the mean is taken over the
/// stored entries where p_ij != 0 and only those move, so a step along the
/// projected direction never opens a transition off the pattern or an
/// explicit zero on it. `grad` must be on `p`'s pattern (the result is).
/// For a strictly positive P on the full pattern this is
/// project_row_sum_zero bit-for-bit (same summation order, same divisor).
linalg::SparseMatrix project_row_sum_zero_on_support(
    const linalg::SparseMatrix& grad, const markov::TransitionMatrix& p);

/// Max-abs row-sum — used by tests to assert the projection's invariant and
/// by the descent loop to detect drift that would need re-normalization.
double max_abs_row_sum(const linalg::Matrix& m);

}  // namespace mocos::cost
