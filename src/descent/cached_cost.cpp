#include "src/descent/cached_cost.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/markov/fundamental.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::descent {

CachedCostEvaluator::CachedCostEvaluator(const cost::CompositeCost& cost)
    : cost_(cost) {}

util::Status CachedCostEvaluator::refresh(const markov::TransitionMatrix& p) {
  obs::ScopedPhase phase("chain_solve");
  // Exact entrywise equality: the memo answers only a bit-identical repeat.
  if (memo_ && memo_->p.matrix() == p.matrix()) {
    ++stats_.exact_hits;
    return util::Status::ok();
  }
  memo_.reset();
  util::StatusOr<markov::ResolventAnalysis> solved =
      markov::try_resolvent_analysis(p);
  if (!solved.ok()) return solved.status();
  ++stats_.full_solves;
  if (solved->sparse) ++stats_.sparse_full_solves;
  memo_.emplace(std::move(solved->chain));
  return util::Status::ok();
}

double CachedCostEvaluator::cost_at(const markov::TransitionMatrix& p) {
  if (!refresh(p).is_ok()) return std::numeric_limits<double>::infinity();
  try {
    obs::ScopedPhase phase("cost_terms");
    const double u = cost_.value(*memo_);
    return std::isnan(u) ? std::numeric_limits<double>::infinity() : u;
  } catch (const std::exception&) {
    return std::numeric_limits<double>::infinity();
  }
}

util::StatusOr<const markov::ChainAnalysis*> CachedCostEvaluator::analyze(
    const markov::TransitionMatrix& p, markov::SolvePolicy policy) {
  if (policy == markov::SolvePolicy::kAuto) {
    // The gradient-step analysis is usually a memo hit (the iterate was
    // just cost-evaluated), so the direct stationary solve inside
    // try_analyze_chain does not run here. Consult its fault site directly
    // to keep the ladder's power-iteration demote rung reachable under
    // injection, matching stationary.cpp's try_direct.
    if (util::fault::fire(util::fault::Site::kStationary))
      return util::Status(util::StatusCode::kSingularMatrix,
                          "stationary solve failed (fault injection)");
    util::Status refreshed = refresh(p);
    if (!refreshed.is_ok()) return refreshed;
    return &*memo_;
  }
  obs::ScopedPhase phase("chain_solve");
  util::StatusOr<markov::ChainAnalysis> chain =
      markov::try_analyze_chain(p, policy);
  if (!chain.ok()) return chain.status();
  fallback_.emplace(std::move(*chain));
  return &*fallback_;
}

void record_cache_metrics(const markov::ChainSolveStats& stats) {
  if (obs::current_metrics() == nullptr) return;
  obs::count("chain_cache.full_solves", stats.full_solves);
  obs::count("chain_cache.sparse_full_solves", stats.sparse_full_solves);
  obs::count("chain_cache.exact_hits", stats.exact_hits);
}

}  // namespace mocos::descent
