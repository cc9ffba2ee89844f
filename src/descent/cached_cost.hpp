#pragma once

#include <optional>

#include "src/cost/composite_cost.hpp"
#include "src/markov/resolvent.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/util/status.hpp"

namespace mocos::descent {

/// Cost/analysis evaluator shared by the deterministic and perturbed descent
/// drivers. Every probe — gradient evaluations, line-search φ(t) samples,
/// candidate acceptance checks — goes through one evaluator, which solves
/// the chain with markov::try_resolvent_analysis_into and keeps the last
/// analysis as a one-entry memo: a probe of exactly the P just analyzed (an
/// accepted step's gradient re-analyzing the line search's final probe)
/// costs no solve. A descent step moves every row of P, so anything but an
/// exact repeat is a fresh solve, which refills the memo's one slot in place
/// (its copy of P, π and factorization keep their storage), so no second
/// analysis is ever alive.
///
/// The evaluator picks the analysis level once, from the cost: π alone
/// (one factorization plus one solve per probe) unless a term declares
/// that it reads Z (cost::CostTerm::needs_fundamental).
class CachedCostEvaluator {
 public:
  explicit CachedCostEvaluator(const cost::CompositeCost& cost);

  /// U_ε(p) through the memo, or +infinity when the chain analysis or cost
  /// evaluation fails (non-ergodic probe, singular system), so searches
  /// treat such points as infeasible. markov::MissingFundamentalError — a
  /// term that reads Z without declaring it — propagates instead.
  [[nodiscard]] double cost_at(const markov::TransitionMatrix& p);

  /// Guarded chain analysis for gradient evaluations. The default policy is
  /// the memoized resolvent route; any other policy (the recovery ladder's
  /// power-iteration rung) bypasses the memo. The pointer stays valid until
  /// the next call on this evaluator.
  [[nodiscard]] util::StatusOr<const markov::ChainAnalysis*> analyze(
      const markov::TransitionMatrix& p,
      markov::SolvePolicy policy = markov::SolvePolicy::kAuto);

  /// The factorization behind the last analyze() result when that analysis
  /// is π-only, for the gradient's π-channel solve; null otherwise. Valid as
  /// long as that result.
  [[nodiscard]] const markov::Resolvent* resolvent() const {
    return analyzed_ != nullptr && analyzed_->resolvent
               ? &*analyzed_->resolvent
               : nullptr;
  }

  /// Solve and memo-hit counts of this evaluator's probes.
  [[nodiscard]] const markov::ChainSolveStats& stats() const {
    return stats_;
  }

 private:
  /// The analysis of `p`: the memo when it holds exactly `p`, else a fresh
  /// resolvent solve that refills it in place (a failed solve empties it).
  [[nodiscard]] util::Status refresh(const markov::TransitionMatrix& p);

  const cost::CompositeCost& cost_;
  const markov::AnalysisLevel level_;  // what the cost's terms read
  /// The memo's one slot: created by the first solve, refilled by each
  /// later one, and holding an analysis only while memo_valid_.
  std::optional<markov::ResolventAnalysis> memo_;
  bool memo_valid_ = false;
  std::optional<markov::ResolventAnalysis> fallback_;  // off-default route
  const markov::ResolventAnalysis* analyzed_ = nullptr;  // last analyze()
  markov::ChainSolveStats stats_;
};

/// Adds a finished evaluator's counters to the current metrics registry
/// (chain_cache.full_solves, .sparse_full_solves, .fundamental_solves,
/// .exact_hits); no-op when metrics are off. Called once per evaluator at
/// the end of a descent run — counters are commutative, so this is
/// jobs-invariant wherever the run executed.
void record_cache_metrics(const markov::ChainSolveStats& stats);

}  // namespace mocos::descent
