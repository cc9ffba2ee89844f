#pragma once

#include <stdexcept>

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

/// How much of a chain an analysis computes. Every cost term except event
/// capture is a function of (π, P) alone (exposure through Kac's
/// return-time identity, DESIGN.md §9.4), so the descent analyzes at
/// kStationary unless a term declares that it reads Z.
enum class AnalysisLevel {
  kStationary,   // π only: one factorization plus one solve
  kFundamental,  // π, the fundamental matrix Z and the passage times R
};

/// Thrown when code reads Z or R from an analysis made at
/// AnalysisLevel::kStationary: a cost term that reads Z without declaring
/// it. A programming error, so the descent's probe evaluator lets it
/// propagate instead of scoring the probe +infinity.
class MissingFundamentalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// One-stop analysis of an ergodic chain: everything the cost function and
/// its gradient need, computed once per probe.
struct ChainAnalysis {
  TransitionMatrix p;
  linalg::Vector pi;   // stationary distribution
  /// The fundamental matrix and the expected first passage times R_ij
  /// (Eq. 8); both empty (0×0) at AnalysisLevel::kStationary. Library code
  /// reads them through fundamental() and passage_times(), which refuse an
  /// analysis that skipped them.
  linalg::Matrix z;
  linalg::Matrix r;

  [[nodiscard]] AnalysisLevel level() const {
    return z.empty() ? AnalysisLevel::kStationary
                     : AnalysisLevel::kFundamental;
  }
  /// Z, or MissingFundamentalError at AnalysisLevel::kStationary.
  [[nodiscard]] const linalg::Matrix& fundamental() const;
  /// R, or MissingFundamentalError at AnalysisLevel::kStationary.
  [[nodiscard]] const linalg::Matrix& passage_times() const;
};

/// Guarded chain analysis: the chain of try_resolvent_analysis(p, policy,
/// level) (resolvent.hpp), the descent's own solve. One factorization of
/// I − P + 𝟙cᵀ, on the sparse ladder where `policy` routes P and by dense LU
/// otherwise or on any ladder failure; π read from it and, at
/// AnalysisLevel::kFundamental, G, then Z and R. The first failure comes
/// back as a structured Status instead of an exception or NaN-laden result.
[[nodiscard]] util::StatusOr<ChainAnalysis> try_analyze_chain(
    const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto,
    AnalysisLevel level = AnalysisLevel::kFundamental);

}  // namespace mocos::markov
