#pragma once

#include <cstddef>

#include "src/markov/fundamental.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// A chain analysis derived from the resolvent
///
///   G = (I − P + 𝟙cᵀ)⁻¹,   c = 𝟙/M  (fixed, independent of P),
///
/// which is nonsingular for every irreducible row-stochastic P and from which
/// all of Eqs. 5–8 follow in O(M²):
///
///   πᵀ = cᵀG          (stationary distribution, Eq. 5)
///   A# = G − 𝟙(πᵀG)   (group inverse of A = I − P, Eq. 7)
///   Z  = A# + 𝟙πᵀ     (Kemeny–Snell fundamental matrix, Eq. 6)
///   R  from (Z, π)    (first passage times, Eq. 8)
struct ResolventAnalysis {
  ChainAnalysis chain;
  bool sparse = false;  // G came from the sparse ladder, not dense LU
};

/// The descent's chain solve: every probe the drivers evaluate through
/// descent::CachedCostEvaluator that is not an exact repeat lands here.
/// G comes from the sparse ladder (banded LU, then BiCGSTAB) when `policy`
/// routes P sparse and from a dense LU factorization otherwise, or when the
/// ladder fails or returns non-finite entries. kPowerIteration routes like
/// kDense: the resolvent is a direct solve, and the power rung lives in
/// try_analyze_chain. Failures come back as a Status: a P that is not
/// row-stochastic, a singular resolvent system, a non-finite G, a non-finite
/// or non-positive π, or non-finite passage times.
[[nodiscard]] util::StatusOr<ResolventAnalysis> try_resolvent_analysis(
    const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto);

/// Counters a caller keeps over its chain solves, exported as the
/// chain_cache.* metrics. An optimization run can span several evaluators
/// (the stochastic phase and its quench polish), so they add up.
struct ChainSolveStats {
  std::size_t full_solves = 0;         // try_resolvent_analysis completions
  std::size_t sparse_full_solves = 0;  // subset of full_solves whose G came
                                       // from the sparse ladder
  std::size_t exact_hits = 0;          // probes of the P just analyzed,
                                       // answered without a solve

  void add(const ChainSolveStats& other) {
    full_solves += other.full_solves;
    sparse_full_solves += other.sparse_full_solves;
    exact_hits += other.exact_hits;
  }
};

}  // namespace mocos::markov
