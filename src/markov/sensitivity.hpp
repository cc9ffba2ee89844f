#pragma once

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/fundamental.hpp"

namespace mocos::markov {

class Resolvent;

/// Schweitzer (1968) perturbation formulas for an ergodic chain, as used in
/// the paper's §IV. For a direction Ṗ in transition-matrix space:
///
///   dπ/dt = π Ṗ Z              (component-wise dπ_i = Σ_{k,j} π_k z_ji Ṗ_kj)
///   dZ/dt = Z Ṗ Z - W Ṗ Z²
///
/// These directional forms are used by tests to validate the adjoint
/// (gradient) combination in cost/gradient.cpp against finite differences;
/// they need the analysis's Z (MissingFundamentalError otherwise).
linalg::Vector stationary_directional_derivative(const ChainAnalysis& chain,
                                                 const linalg::Matrix& pdot);

linalg::Matrix fundamental_directional_derivative(const ChainAnalysis& chain,
                                                  const linalg::Matrix& pdot);

/// Adjoint (reverse-mode) combination, Eq. 10 of the paper: given the partial
/// derivatives of a scalar U with respect to π, Z and P (holding the others
/// fixed; ∂U/∂P on chain.p's pattern), returns the full gradient on P's
/// pattern
///
///   [D_P U]_kl = Σ_i π_k z_li ∂U/∂π_i
///              + Σ_ij ∂U/∂z_ij [ z_ik z_lj - π_k (Z²)_lj ]
///              + ∂U/∂p_kl .
///
/// The Z-channel is assembled dense and gathered onto the pattern.
linalg::SparseMatrix chain_rule_gradient(const ChainAnalysis& chain,
                                         const linalg::Vector& du_dpi,
                                         const linalg::Matrix& du_dz,
                                         const linalg::SparseMatrix& du_dp);

/// Eq. 10 for a cost that reads (π, P) only, whose Z-channel vanishes:
///
///   [D_P U]_kl = π_k (Z ∂U/∂π)_l + ∂U/∂p_kl .
///
/// Z ∂U/∂π comes from the analysis's Z when it has one, else from one solve
/// through `resolvent` (a factorization of chain.p's resolvent; null
/// refactors it). A failed solve fills the gradient with NaN, which the
/// descent's finite-gradient check turns into a recovery. O(nnz) past the
/// solve: the gradient lives on P's pattern.
linalg::SparseMatrix stationary_chain_rule_gradient(
    const ChainAnalysis& chain, const linalg::Vector& du_dpi,
    const linalg::SparseMatrix& du_dp, const Resolvent* resolvent = nullptr);

}  // namespace mocos::markov
