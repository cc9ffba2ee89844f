#pragma once

#include "src/linalg/matrix.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// Power-iteration fallback/cross-check: repeatedly applies x ← x P until the
/// L1 change drops below `tol` or `max_iters` is hit. Used in tests to verify
/// the direct solver and by the descent recovery ladder when the direct
/// solve fails.
[[nodiscard]] linalg::Vector stationary_power_iteration(
    const TransitionMatrix& p, std::size_t max_iters = 100000,
    double tol = 1e-13);

/// Stationary distribution π of an ergodic chain: the unique probability
/// vector with π P = π. The direct route is the descent's own π solve
/// (markov::Resolvent): one factorization of I − P + 𝟙cᵀ and one transposed
/// solve, on the sparse ladder (RCM-banded LU) for chains `policy` routes
/// sparse and by dense LU otherwise or when the ladder fails. The descent
/// recovery ladder demotes itself to kPowerIteration after a singular
/// direct solve. Failure modes:
///  - kSingularMatrix: the direct system could not be factored;
///  - kNotErgodic: the solution has negative mass (reducible chain), or the
///    power iteration converged to something that is not a fixed point of P
///    (periodic chain);
///  - kNonFiniteValue: NaN/inf leaked into the solve.
/// The returned vector is validated (finite, non-negative, sums to 1) before
/// being handed back.
[[nodiscard]] util::StatusOr<linalg::Vector> try_stationary_distribution(
    const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto);

}  // namespace mocos::markov
