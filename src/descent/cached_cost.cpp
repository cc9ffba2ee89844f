#include "src/descent/cached_cost.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::descent {

CachedCostEvaluator::CachedCostEvaluator(const cost::CompositeCost& cost)
    : cost_(cost), level_(cost.analysis_level()) {}

util::Status CachedCostEvaluator::refresh(const markov::TransitionMatrix& p) {
  obs::ScopedPhase phase("chain_solve");
  // Exact equality, pattern first (the same object on a descent, so O(1))
  // and then every stored value: the memo answers only a bit-identical
  // repeat.
  if (memo_valid_ && memo_->chain.p == p) {
    ++stats_.exact_hits;
    return util::Status::ok();
  }
  memo_valid_ = false;
  if (!memo_)
    memo_.emplace(markov::ResolventAnalysis{
        markov::ChainAnalysis{p, {}, {}, {}}, false, std::nullopt});
  util::Status solved = markov::try_resolvent_analysis_into(
      p, markov::SolvePolicy::kAuto, level_, *memo_);
  if (!solved.is_ok()) return solved;
  memo_valid_ = true;
  ++stats_.full_solves;
  if (memo_->sparse) ++stats_.sparse_full_solves;
  if (memo_->chain.level() == markov::AnalysisLevel::kFundamental)
    ++stats_.fundamental_solves;
  return util::Status::ok();
}

double CachedCostEvaluator::cost_at(const markov::TransitionMatrix& p) {
  if (!refresh(p).is_ok()) return std::numeric_limits<double>::infinity();
  try {
    obs::ScopedPhase phase("cost_terms");
    const double u = cost_.value(memo_->chain);
    return std::isnan(u) ? std::numeric_limits<double>::infinity() : u;
  } catch (const markov::MissingFundamentalError&) {
    throw;  // a term read Z it never declared: a bug, not an infeasible P
  } catch (const std::exception&) {
    return std::numeric_limits<double>::infinity();
  }
}

util::StatusOr<const markov::ChainAnalysis*> CachedCostEvaluator::analyze(
    const markov::TransitionMatrix& p, markov::SolvePolicy policy) {
  analyzed_ = nullptr;
  if (policy == markov::SolvePolicy::kAuto) {
    // The gradient-step analysis is usually a memo hit (the iterate was
    // just cost-evaluated), so no stationary solve runs here. Consult the
    // direct solve's fault site directly to keep the ladder's
    // power-iteration demote rung reachable under injection, matching
    // stationary.cpp's try_direct.
    if (util::fault::fire(util::fault::Site::kStationary))
      return util::Status(util::StatusCode::kSingularMatrix,
                          "stationary solve failed (fault injection)");
    util::Status refreshed = refresh(p);
    if (!refreshed.is_ok()) return refreshed;
    analyzed_ = &*memo_;
    return &memo_->chain;
  }
  obs::ScopedPhase phase("chain_solve");
  util::StatusOr<markov::ResolventAnalysis> solved =
      markov::try_resolvent_analysis(p, policy, level_);
  if (!solved.ok()) return solved.status();
  fallback_.emplace(std::move(*solved));
  analyzed_ = &*fallback_;
  return &fallback_->chain;
}

void record_cache_metrics(const markov::ChainSolveStats& stats) {
  if (obs::current_metrics() == nullptr) return;
  obs::count("chain_cache.full_solves", stats.full_solves);
  obs::count("chain_cache.sparse_full_solves", stats.sparse_full_solves);
  obs::count("chain_cache.fundamental_solves", stats.fundamental_solves);
  obs::count("chain_cache.exact_hits", stats.exact_hits);
}

}  // namespace mocos::descent
