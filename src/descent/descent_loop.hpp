#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cost/gradient.hpp"
#include "src/descent/cached_cost.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/descent/step_bounds.hpp"
#include "src/linalg/guard.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"

namespace mocos::descent {

/// The iteration both descent drivers share. In the paper's §V every variant
/// runs the same analyze → gradient → step iteration (V4 only perturbs the
/// direction and anneals acceptance), so the loop owns everything around the
/// step: the iterate, its cost and the last good iterate; the run's one
/// CachedCostEvaluator; cancellation; the guarded chain analysis and
/// gradient; the recovery ladder (DESIGN.md §7.2); and the per-iteration
/// telemetry. A driver supplies only what it does with each gradient.
class DescentLoop {
 public:
  enum class Driver {
    kSteepest,  // Π[D_P U] on P's pattern; the descent.run span
    kPerturbed  // raw [D_P U] on P's pattern, noised and projected by the
                // driver
  };

  /// What one driver pass did with the gradient it was handed.
  struct Pass {
    /// Non-ok when the step's own evaluation failed: the pass is not
    /// recorded, and the loop rolls back and climbs the ladder.
    util::Status failure;
    std::optional<markov::TransitionMatrix> next;  // empty: stay put
    double next_cost = 0.0;
    double step = 0.0;       // Δt taken; 0 when no step was taken
    double grad_norm = 0.0;  // Frobenius norm of the search direction
    std::size_t probes = 0;  // cost evaluations spent choosing the step
    /// Ends the run after this pass, or instead of recording it when
    /// `recorded` is false (nothing was tried, as at a vanishing gradient).
    std::optional<StopReason> stop;
    bool recorded = true;
  };

  /// Entries of P stay within [margin, 1-margin], which keeps the chain
  /// ergodic and the barrier finite along the whole trajectory.
  static constexpr double kProbabilityMargin = 1e-12;
  /// The ladder's trial-step shrink per failure; it heals ×2 per pass.
  static constexpr double kRecoveryStepBackoff = 0.25;
  /// Margin growth per failure from the second consecutive one, and its cap.
  static constexpr double kRecoveryMarginGrowth = 16.0;
  static constexpr double kRecoveryMarginCap = 1e-4;

  /// Evaluates `start` (std::invalid_argument when infeasible), then opens
  /// the run's span and phase; both close on destruction, so work done while
  /// the loop lives nests under them. `config` must outlive the loop.
  DescentLoop(Driver driver, const cost::CompositeCost& cost,
              const DescentConfig& config, bool keep_trace,
              const markov::TransitionMatrix& start)
      : driver_(driver),
        cost_(cost),
        config_(config),
        keep_trace_(keep_trace),
        evaluator_(cost),
        result_{start,   feasible(evaluator_.cost_at(start)),
                0,       StopReason::kMaxIterations,
                Trace{}, RecoveryLog{},
                markov::ChainSolveStats{}},
        last_good_(start),
        candidate_(start),
        span_(run_name(), "descent"),
        phase_(run_name()) {
    obs::count(driver == Driver::kSteepest ? "descent.runs"
                                           : "descent.perturbed.runs");
  }
  DescentLoop(const DescentLoop&) = delete;
  DescentLoop& operator=(const DescentLoop&) = delete;

  /// Runs up to `max_iterations` passes of `step`, which gets the zero-based
  /// pass index and the finite gradient at the current iterate, on its
  /// pattern (free to modify it). Stops early on cancellation, a pass's stop
  /// reason, or an exhausted retry budget.
  void run(
      std::size_t max_iterations,
      const std::function<Pass(std::size_t, linalg::SparseMatrix&)>& step) {
    for (std::size_t it = 0; it < max_iterations; ++it) {
      // Cooperative cancellation (request deadlines, server drain): polled
      // once per iteration, so a cancelled run still returns a consistent
      // finite iterate instead of being torn down mid-evaluation.
      if (config_.should_stop && config_.should_stop()) {
        result_.reason = StopReason::kCancelled;
        return;
      }
      ++passes_;
      util::StatusOr<const markov::ChainAnalysis*> chain =
          evaluator_.analyze(result_.p, policy_);
      if (!chain.ok() && policy_ == markov::SolvePolicy::kAuto &&
          util::is_numerical_failure(chain.status().code())) {
        policy_ = markov::SolvePolicy::kPowerIteration;
        result_.recovery.record(it, RecoveryAction::kPowerIterationFallback,
                                chain.status().code(),
                                chain.status().message());
        chain = evaluator_.analyze(result_.p, policy_);
      }
      if (!chain.ok()) {
        if (!recover(it, chain.status())) return;
        continue;
      }
      linalg::SparseMatrix grad;
      {
        obs::ScopedPhase phase("gradient_assembly");
        grad = driver_ == Driver::kSteepest
                   ? cost::projected_cost_gradient(cost_, **chain,
                                                   evaluator_.resolvent())
                   : cost::cost_gradient(cost_, **chain,
                                         evaluator_.resolvent());
      }
      // The trace reports this iterate's per-term breakdown; take it now,
      // since the driver's probes replace the evaluator's analysis.
      std::vector<std::pair<std::string, double>> terms;
      if (obs::trace_active()) terms = cost_.breakdown(**chain);
      const util::Status grad_ok = util::check_finite(grad, "gradient");
      if (!grad_ok.is_ok()) {
        if (!recover(it, grad_ok)) return;
        continue;
      }

      Pass pass = step(it, grad);
      if (!pass.failure.is_ok()) {
        if (!recover(it, pass.failure)) return;
        continue;
      }
      if (pass.recorded) record(pass, terms);
      if (pass.next) {
        result_.p = std::move(*pass.next);
        result_.cost = pass.next_cost;
        last_good_ = result_.p;
      }
      // A completed pass resets the ladder and lets the step scale heal.
      consecutive_failures_ = 0;
      step_scale_ = std::min(1.0, step_scale_ * 2.0);
      if (pass.stop) {
        result_.reason = *pass.stop;
        return;
      }
    }
  }

  /// The current iterate and U_ε there.
  const markov::TransitionMatrix& iterate() const { return result_.p; }
  double cost() const { return result_.cost; }
  /// The ladder's trial-step scale: exactly 1 on a clean run.
  double step_scale() const { return step_scale_; }
  /// Largest step along `direction` (on the iterate's pattern) that keeps
  /// the iterate inside the current margin, times step_scale().
  double max_step(const linalg::SparseMatrix& direction) const {
    return max_feasible_step(result_.p, direction, margin_) * step_scale_;
  }
  /// The iterate moved by t·direction, clamped into the current margin.
  markov::TransitionMatrix stepped(const linalg::SparseMatrix& direction,
                                   double t) const {
    return apply_step(result_.p, direction, t, margin_);
  }
  /// U_ε of a probe, through the run's evaluator.
  double cost_at(const markov::TransitionMatrix& p) {
    return evaluator_.cost_at(p);
  }
  /// cost_at(stepped(direction, t)), bit for bit, without its allocations:
  /// the step lands in one candidate matrix the loop reuses for every
  /// probe, and the evaluator refills its memo in place. The line searches'
  /// φ(t).
  double probe(const linalg::SparseMatrix& direction, double t) {
    apply_step_into(result_.p, direction, t, margin_, candidate_);
    return evaluator_.cost_at(candidate_);
  }
  /// Passes begun, failed and pinned ones included (not a cancelled one).
  std::size_t passes() const { return passes_; }

  /// Exports the evaluator's chain-solve counters and hands over the result:
  /// final iterate and cost, recorded passes as `iterations`, stop reason,
  /// trace, recovery log and chain stats. Call once, after run().
  [[nodiscard]] DescentResult finish() {
    result_.chain_stats = evaluator_.stats();
    record_cache_metrics(result_.chain_stats);
    return std::move(result_);
  }

 private:
  const char* run_name() const {
    return driver_ == Driver::kSteepest ? "descent.run"
                                        : "descent.perturbed_run";
  }

  double feasible(double start_cost) const {
    if (std::isinf(start_cost))
      throw std::invalid_argument(
          std::string(driver_ == Driver::kSteepest ? "SteepestDescent"
                                                   : "PerturbedDescent") +
          ": infeasible start matrix");
    return start_cost;
  }

  /// Rollback, step backoff, and from the second consecutive failure margin
  /// widening. False once the retry budget is exhausted.
  bool recover(std::size_t it, const util::Status& cause) {
    ++consecutive_failures_;
    if (consecutive_failures_ > config_.recovery_retry_budget) {
      result_.recovery.record(it, RecoveryAction::kAbandoned, cause.code(),
                              "retry budget exhausted: " + cause.message());
      result_.reason = StopReason::kNumericalFailure;
      return false;
    }
    result_.p = last_good_;
    result_.recovery.record(it, RecoveryAction::kRollback, cause.code(),
                            cause.message());
    step_scale_ *= kRecoveryStepBackoff;
    result_.recovery.record(it, RecoveryAction::kStepBackoff, cause.code(),
                            "step scale " + std::to_string(step_scale_));
    if (consecutive_failures_ >= 2 && margin_ < kRecoveryMarginCap) {
      margin_ = std::min(margin_ * kRecoveryMarginGrowth, kRecoveryMarginCap);
      // Pull the iterate off the simplex boundary: a zero step clamps every
      // entry into the widened margin and renormalizes the rows.
      result_.p =
          stepped(linalg::SparseMatrix(result_.p.csr().shared_pattern()), 0.0);
      const double refreshed = evaluator_.cost_at(result_.p);
      if (std::isfinite(refreshed)) {
        last_good_ = result_.p;
        result_.cost = refreshed;
      }
      result_.recovery.record(it, RecoveryAction::kMarginWidened,
                              cause.code(),
                              "margin " + std::to_string(margin_));
    }
    return true;
  }

  /// The pass's trace record, metrics and descent.iteration instant.
  void record(const Pass& pass,
              const std::vector<std::pair<std::string, double>>& terms) {
    ++result_.iterations;
    const bool accepted = pass.next.has_value();
    const double u_next = accepted ? pass.next_cost : result_.cost;
    if (keep_trace_)
      result_.trace.record({result_.iterations, u_next, pass.step,
                            pass.grad_norm, accepted});
    if (obs::current_metrics() != nullptr) {
      obs::count("descent.iterations");
      obs::count("descent.line_search.probes", pass.probes);
      obs::count(accepted ? "descent.steps.accepted"
                          : "descent.steps.rejected");
      obs::observe("descent.gradient_norm", obs::decade_bounds(-12, 3),
                   pass.grad_norm);
      if (pass.step > 0.0)
        obs::observe("descent.step_size", obs::decade_bounds(-12, 0),
                     pass.step);
    }
    if (obs::trace_active()) {
      // Cost U at the analyzed iterate, its per-term breakdown (coverage ΔC,
      // exposure Ē, barrier/energy/entropy contributions), the step taken
      // from it and the cost after the pass.
      obs::TraceArgs args;
      args.num("iteration", static_cast<double>(result_.iterations))
          .num("u", result_.cost)
          .num("u_next", u_next)
          .num("step", pass.step)
          .num("grad_norm", pass.grad_norm)
          .num("probes", static_cast<double>(pass.probes))
          .num("accepted", accepted ? 1.0 : 0.0);
      for (const auto& [term, value] : terms) args.num("term." + term, value);
      obs::trace_instant("descent.iteration", "descent", args);
    }
  }

  const Driver driver_;
  const cost::CompositeCost& cost_;
  const DescentConfig& config_;
  const bool keep_trace_;
  CachedCostEvaluator evaluator_;
  DescentResult result_;
  markov::TransitionMatrix last_good_;
  markov::TransitionMatrix candidate_;  // probe()'s reused step target
  markov::SolvePolicy policy_ = markov::SolvePolicy::kAuto;
  double margin_ = kProbabilityMargin;
  double step_scale_ = 1.0;
  std::size_t consecutive_failures_ = 0;
  std::size_t passes_ = 0;
  obs::ScopedSpan span_;
  obs::ScopedPhase phase_;
};

}  // namespace mocos::descent
