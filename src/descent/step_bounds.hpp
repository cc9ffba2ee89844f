#pragma once

#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::descent {

/// Largest t >= 0 such that every stored entry of P + t*V stays inside
/// [margin, 1 - margin] (the "boundaries of δ ... determined with respect to
/// the constraint 0 <= p_ij <= 1" in variant V3). V lives on P's pattern
/// (std::invalid_argument otherwise), so the loop is O(nnz). Returns
/// +infinity when V never pushes any entry toward a bound.
///
/// `margin` > 0 keeps the iterate strictly inside the polytope so the chain
/// stays ergodic and the barrier terms stay finite.
double max_feasible_step(const markov::TransitionMatrix& p,
                         const linalg::SparseMatrix& v, double margin = 0.0);

}  // namespace mocos::descent
