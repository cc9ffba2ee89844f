#pragma once

#include <cstddef>
#include <optional>

#include "src/linalg/lu.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/sparse/resolvent_ladder.hpp"
#include "src/util/status.hpp"

namespace mocos::markov {

/// One factorization of the resolvent system
///
///   A = I − P + 𝟙cᵀ,   G = A⁻¹,   c = 𝟙/M  (fixed, independent of P),
///
/// which is nonsingular for every irreducible row-stochastic P. Everything
/// the descent needs of the chain follows from it:
///
///   πᵀ = cᵀG          (stationary distribution, Eq. 5: one transposed solve)
///   Z v = Gv − 𝟙(πᵀGv) + 𝟙(πᵀv)   (Z = A# + 𝟙πᵀ, Eqs. 6–7: one solve)
///   G                 (one solve per column, for the dense Z and R)
///
/// The factorization comes from the sparse ladder (banded LU, then
/// BiCGSTAB) when the policy routes P sparse and the ladder's π passes
/// check_stationary_residual, and from a dense LU otherwise
/// (kPowerIteration factors dense).
class Resolvent {
 public:
  /// No factorization yet: the slot try_refactor() fills.
  Resolvent() = default;

  /// Factors A for the row-stochastic `p` and solves for π. Fails with the
  /// dense LU's status (kSingularMatrix for a reducible chain) or
  /// kNonFiniteValue when π is not finite. Each accepted ladder
  /// factorization counts markov.sparse.solves, each switch from the ladder
  /// to the dense LU markov.sparse.fallbacks.
  [[nodiscard]] static util::StatusOr<Resolvent> try_factor(
      const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto);

  /// The in-place form of try_factor, with its statuses and counters: A is
  /// written in one pass straight into the dense factors' storage and
  /// factored there, and π lands in this object's own vector, so a dense
  /// refactor at an unchanged M allocates nothing. After a failure the
  /// object holds no factorization (its products return kInternal) until
  /// the next success.
  [[nodiscard]] util::Status try_refactor(
      const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto);

  /// True when the sparse ladder produced the factorization.
  [[nodiscard]] bool sparse() const { return sparse_.has_value(); }

  /// π from the factorization: finite, unit mass, positivity unchecked.
  [[nodiscard]] const linalg::Vector& stationary() const { return pi_; }

  /// Z v for the chain's fundamental matrix, given its stationary `pi`.
  [[nodiscard]] util::StatusOr<linalg::Vector> try_fundamental_apply(
      const linalg::Vector& pi, const linalg::Vector& v) const;

  /// The dense resolvent G.
  [[nodiscard]] util::StatusOr<linalg::Matrix> try_inverse() const;

 private:
  /// The sparse ladder's factorization of `p`'s stored entries and its π,
  /// kept only when every rung step succeeds and π passes the fixed-point
  /// gate.
  [[nodiscard]] util::Status try_factor_sparse(const linalg::SparseMatrix& p,
                                               const linalg::Vector& c);

  /// kInternal unless the object holds a factorization.
  [[nodiscard]] util::Status check_factored() const;

  linalg::LuDecomposition dense_;  // its storage serves every dense refactor
  std::optional<sparse::SparseResolvent> sparse_;
  bool factored_ = false;
  linalg::Vector c_;     // the reference vector 𝟙/M
  linalg::Vector pi_;
  linalg::Vector work_;  // the transposed solve's scratch
};

/// The fixed-point gate on the sparse ladder's π.
inline constexpr double kStationaryResidualTol = 1e-12;

/// kNotErgodic, naming the residual, unless π is a fixed point of the CSR
/// chain `p`: ‖πᵀP − πᵀ‖∞ ≤ kStationaryResidualTol. Resolvent::try_factor
/// accepts the sparse ladder's π only through this check.
[[nodiscard]] util::Status check_stationary_residual(
    const linalg::SparseMatrix& p, const linalg::Vector& pi);

/// A chain analysis made through a Resolvent.
struct ResolventAnalysis {
  ChainAnalysis chain;
  bool sparse = false;  // the factorization came from the sparse ladder
  /// The factorization behind an AnalysisLevel::kStationary analysis, kept
  /// so the gradient's π-channel product Z·∂U/∂π costs one solve; empty at
  /// kFundamental, where Z is explicit.
  std::optional<Resolvent> resolvent;
};

/// The one chain analysis: every probe the drivers evaluate through
/// descent::CachedCostEvaluator that is not an exact repeat lands here, and
/// try_analyze_chain returns its chain. Factors the resolvent
/// (Resolvent::try_factor) and reads π from it; at
/// AnalysisLevel::kFundamental also builds G, then Z and R. The sparse
/// ladder falls back to the dense factorization on any failure, never a new
/// failure mode; a failure past the factorization reruns the analysis dense
/// and counts markov.sparse.fallbacks. kPowerIteration, the recovery
/// ladder's demoted rung, takes π from power iteration and still factors A
/// for Z. Failures come back as a Status: a P that is not row-stochastic, a
/// singular resolvent system, a non-finite G, a non-finite or non-positive
/// π, or non-finite passage times.
[[nodiscard]] util::StatusOr<ResolventAnalysis> try_resolvent_analysis(
    const TransitionMatrix& p, SolvePolicy policy = SolvePolicy::kAuto,
    AnalysisLevel level = AnalysisLevel::kFundamental);

/// The in-place form of try_resolvent_analysis, with its statuses, counters
/// and fault sites: refills the caller's `out` (the copy of P, π and, at
/// kStationary, the factorization in out.resolvent, whose storage
/// Resolvent::try_refactor reuses) instead of returning a new analysis. A
/// dense kStationary refill of an `out` that already held an analysis of
/// the same M allocates nothing. After a failure `out` holds no usable
/// analysis until the next success.
[[nodiscard]] util::Status try_resolvent_analysis_into(
    const TransitionMatrix& p, SolvePolicy policy, AnalysisLevel level,
    ResolventAnalysis& out);

/// Counters a caller keeps over its chain solves, exported as the
/// chain_cache.* metrics. An optimization run can span several evaluators
/// (the stochastic phase and its quench polish), so they add up.
struct ChainSolveStats {
  std::size_t full_solves = 0;         // try_resolvent_analysis completions:
                                       // one complete solve of what the
                                       // cost needs
  std::size_t sparse_full_solves = 0;  // subset of full_solves factored on
                                       // the sparse ladder
  std::size_t fundamental_solves = 0;  // subset of full_solves that also
                                       // built Z
  std::size_t exact_hits = 0;          // probes of the P just analyzed,
                                       // answered without a solve

  void add(const ChainSolveStats& other) {
    full_solves += other.full_solves;
    sparse_full_solves += other.sparse_full_solves;
    fundamental_solves += other.fundamental_solves;
    exact_hits += other.exact_hits;
  }
};

}  // namespace mocos::markov
