#pragma once

#include "src/linalg/matrix.hpp"
#include "src/markov/stationary.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// Kemeny–Snell fundamental matrix Z = (I - P + W)^(-1), where W = 𝟙πᵀ
/// (every row equals the stationary distribution). The paper uses Z (via the
/// group inverse A# = Z - W, Eq. 7) to express first passage times (Eq. 8)
/// and the chain sensitivities (§IV, following Schweitzer). Returns
/// kSingularMatrix (with the LU pivot diagnostics in the message) when
/// I - P + W cannot be inverted, kNonFiniteValue when the inverse contains
/// NaN/inf.
[[nodiscard]] util::StatusOr<linalg::Matrix> try_fundamental_matrix(
    const linalg::Matrix& p, const linalg::Vector& pi);

/// W = 𝟙πᵀ.
[[nodiscard]] linalg::Matrix stationary_rows(const linalg::Vector& pi);

/// One-stop analysis of an ergodic chain: everything the cost function and
/// its gradient need, computed once per optimizer iteration.
struct ChainAnalysis {
  TransitionMatrix p;
  linalg::Vector pi;   // stationary distribution
  linalg::Matrix z;    // fundamental matrix
  linalg::Matrix r;    // expected first passage times R_ij (Eq. 8)
};

/// Guarded chain analysis. Chains `policy` routes sparse go through
/// partition::try_sparse_analyze_chain (resolvent ladder plus a block A/D
/// cross-check on π); everything else, and any sparse failure, runs the
/// stationary solve `policy` selects, then the fundamental-matrix inversion
/// and passage times, validating each stage. The first failure is returned
/// as a structured Status instead of an exception or NaN-laden result.
[[nodiscard]] util::StatusOr<ChainAnalysis> try_analyze_chain(
    const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto);

}  // namespace mocos::markov
