#include "src/descent/steepest_descent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cost/gradient.hpp"
#include "src/descent/cached_cost.hpp"
#include "src/descent/step_bounds.hpp"
#include "src/linalg/norms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::descent {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kMaxIterations:
      return "max-iterations";
    case StopReason::kGradientTolerance:
      return "gradient-tolerance";
    case StopReason::kNoDescentStep:
      return "no-descent-step";
    case StopReason::kCostTolerance:
      return "cost-tolerance";
    case StopReason::kStallLimit:
      return "stall-limit";
    case StopReason::kNumericalFailure:
      return "numerical-failure";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

double safe_cost(const cost::CompositeCost& cost,
                 const markov::TransitionMatrix& p) {
  try {
    const double u = cost.value(p);
    return std::isnan(u) ? std::numeric_limits<double>::infinity() : u;
  } catch (const std::exception&) {
    return std::numeric_limits<double>::infinity();
  }
}

markov::TransitionMatrix apply_step(const markov::TransitionMatrix& p,
                                    const linalg::Matrix& v, double t,
                                    double margin) {
  const std::size_t n = p.size();
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      // Structural zeros of a support-restricted chain stay exactly zero:
      // the support-masked gradient projection gives them a zero direction,
      // and clamping them up to `margin` would silently densify the chain.
      // mocos-lint: allow(float-eq)
      if (p(i, j) == 0.0 && v(i, j) == 0.0) continue;
      const double x =
          std::clamp(p(i, j) + t * v(i, j), margin, 1.0 - margin);
      m(i, j) = x;
      row_sum += x;
    }
    // The direction is row-sum-zero, so row_sum ≈ 1 up to clamping;
    // renormalize exactly.
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= row_sum;
  }
  return markov::TransitionMatrix(std::move(m));
}

markov::TransitionMatrix reproject_interior(const markov::TransitionMatrix& p,
                                            double margin) {
  return apply_step(p, linalg::Matrix(p.size(), p.size(), 0.0), 0.0, margin);
}

SteepestDescent::SteepestDescent(const cost::CompositeCost& cost,
                                 DescentConfig config)
    : cost_(cost), config_(config) {
  if (config_.constant_step <= 0.0 &&
      config_.step_policy == StepPolicy::kConstant)
    throw std::invalid_argument("SteepestDescent: constant_step <= 0");
  if (config_.max_iterations == 0)
    throw std::invalid_argument("SteepestDescent: max_iterations == 0");
  if (config_.direction_policy == DirectionPolicy::kConjugateGradient &&
      config_.step_policy != StepPolicy::kLineSearch)
    throw std::invalid_argument(
        "SteepestDescent: conjugate gradient requires the line-search step "
        "policy");
}

DescentResult SteepestDescent::run(
    const markov::TransitionMatrix& start) const {
  markov::TransitionMatrix p = start;
  // All probe evaluations in this run — gradients, line-search samples,
  // candidate checks — share one evaluator and its exact-repeat memo.
  CachedCostEvaluator evaluator(cost_);
  DescentResult result{p,
                       evaluator.cost_at(p),
                       0,
                       StopReason::kMaxIterations,
                       Trace{},
                       RecoveryLog{},
                       markov::ChainSolveStats{}};
  if (std::isinf(result.cost))
    throw std::invalid_argument("SteepestDescent: infeasible start matrix");
  obs::count("descent.runs");
  obs::ScopedSpan run_span("descent.run", "descent");
  obs::ScopedPhase run_phase("descent.run");
  // Shared epilogue for both exit paths: export the chain-solve counters and
  // the final cost as a gauge.
  auto finalize = [&] {
    result.chain_stats = evaluator.stats();
    record_cache_metrics(result.chain_stats);
    obs::gauge_set("descent.final_cost", result.cost);
  };

  // Recovery-ladder state. `last_good` is the most recent iterate whose cost
  // evaluated finite (the start qualifies by the check above); the ladder
  // rolls back to it whenever an evaluation fails.
  markov::TransitionMatrix last_good = p;
  markov::SolvePolicy policy = markov::SolvePolicy::kAuto;
  double margin = config_.probability_margin;
  double step_scale = 1.0;
  std::size_t consecutive_failures = 0;

  // Rolls back, backs off, and (from the second consecutive failure) widens
  // the interior margin. Returns false when the retry budget is exhausted.
  auto recover = [&](std::size_t it, const util::Status& cause) -> bool {
    ++consecutive_failures;
    if (consecutive_failures > config_.recovery_retry_budget) {
      result.recovery.record(it, RecoveryAction::kAbandoned, cause.code(),
                             "retry budget exhausted: " + cause.message());
      result.reason = StopReason::kNumericalFailure;
      return false;
    }
    p = last_good;
    result.recovery.record(it, RecoveryAction::kRollback, cause.code(),
                           cause.message());
    step_scale *= config_.recovery_step_backoff;
    result.recovery.record(it, RecoveryAction::kStepBackoff, cause.code(),
                           "step scale " + std::to_string(step_scale));
    if (consecutive_failures >= 2 && margin < config_.recovery_margin_cap) {
      margin = std::min(std::max(margin, 1e-12) *
                            config_.recovery_margin_growth,
                        config_.recovery_margin_cap);
      p = reproject_interior(p, margin);
      const double refreshed = evaluator.cost_at(p);
      if (std::isfinite(refreshed)) {
        last_good = p;
        result.cost = refreshed;
      }
      result.recovery.record(it, RecoveryAction::kMarginWidened, cause.code(),
                             "margin " + std::to_string(margin));
    }
    return true;
  };

  // Polak–Ribière+ state (only used by the CG direction policy).
  linalg::Matrix prev_grad;
  linalg::Matrix prev_direction;

  for (std::size_t it = 0; it < config_.max_iterations; ++it) {
    // Cooperative cancellation (request deadlines, server drain): polled
    // once per iteration, so a cancelled run still returns a consistent
    // finite iterate instead of being torn down mid-evaluation.
    if (config_.should_stop && config_.should_stop()) {
      result.reason = StopReason::kCancelled;
      break;
    }
    // --- Guarded evaluation: chain analysis, then the gradient. ----------
    util::StatusOr<const markov::ChainAnalysis*> chain =
        evaluator.analyze(p, policy);
    if (!chain.ok() && policy == markov::SolvePolicy::kAuto &&
        util::is_numerical_failure(chain.status().code())) {
      policy = markov::SolvePolicy::kPowerIteration;
      result.recovery.record(it, RecoveryAction::kPowerIterationFallback,
                             chain.status().code(), chain.status().message());
      chain = evaluator.analyze(p, policy);
    }
    if (!chain.ok()) {
      if (!recover(it, chain.status())) break;
      continue;
    }
    linalg::Matrix grad;
    {
      obs::ScopedPhase phase("gradient_assembly");
      grad = cost::projected_cost_gradient(cost_, **chain);
    }
    // The trace reports this iterate's per-term breakdown; take it now, since
    // the line-search probes below replace the evaluator's analysis.
    std::vector<std::pair<std::string, double>> terms;
    if (obs::trace_active()) terms = cost_.breakdown(**chain);
    const util::Status grad_ok = util::check_finite(grad, "gradient");
    if (!grad_ok.is_ok()) {
      if (!recover(it, grad_ok)) break;
      continue;
    }

    const double grad_norm = linalg::frobenius_norm(grad);
    if (grad_norm < config_.gradient_tolerance) {
      result.reason = StopReason::kGradientTolerance;
      break;
    }
    linalg::Matrix direction = grad * (-1.0);
    if (config_.direction_policy == DirectionPolicy::kConjugateGradient &&
        !prev_grad.empty()) {
      // beta = max(0, <g, g - g_prev> / <g_prev, g_prev>)  (PR+).
      const double denom = linalg::frobenius_dot(prev_grad, prev_grad);
      if (denom > 0.0) {
        const double beta = std::max(
            0.0, linalg::frobenius_dot(grad, grad - prev_grad) / denom);
        direction += prev_direction * beta;
        // Restart on non-descent directions.
        if (linalg::frobenius_dot(direction, grad) >= 0.0)
          direction = grad * (-1.0);
      }
    }
    if (config_.direction_policy == DirectionPolicy::kConjugateGradient) {
      prev_grad = grad;
      prev_direction = direction;
    }
    const double max_step =
        max_feasible_step(p.matrix(), direction, margin) * step_scale;

    double step = 0.0;
    double new_cost = result.cost;
    std::size_t probes = 0;
    markov::TransitionMatrix candidate = p;
    {
      // Probe evaluations (and the chain solves they trigger) accumulate
      // under line_search in the phase profile.
      obs::ScopedPhase line_search_phase("line_search");
      if (config_.step_policy == StepPolicy::kConstant) {
        step = std::min(config_.constant_step * step_scale, max_step);
        const double biggest = linalg::max_abs(direction);
        if (biggest > 0.0 && config_.max_entry_change > 0.0)
          step = std::min(step, config_.max_entry_change / biggest);
        if (step > 0.0) {
          candidate = apply_step(p, direction, step, margin);
          new_cost = evaluator.cost_at(candidate);
          probes = 1;
        }
      } else {
        auto phi = [&](double t) {
          return evaluator.cost_at(apply_step(p, direction, t, margin));
        };
        const LineSearchResult ls = trisection_search(phi, result.cost,
                                                      max_step,
                                                      config_.line_search);
        step = ls.step;
        probes = ls.evaluations;
        if (step > 0.0) {
          candidate = apply_step(p, direction, step, margin);
          new_cost = ls.value;
        }
      }
    }

    // A step that lands on a non-finite cost is rejected, not silently
    // accepted: roll back and let the ladder shrink the trial step.
    if (step > 0.0 && !std::isfinite(new_cost)) {
      if (!recover(it, util::Status(util::StatusCode::kStepRejected,
                                    "candidate cost is not finite")))
        break;
      continue;
    }
    if (step > 0.0) p = std::move(candidate);

    ++result.iterations;
    if (config_.keep_trace)
      result.trace.record({result.iterations, new_cost, step, grad_norm,
                           /*accepted=*/step > 0.0});

    if (obs::current_metrics() != nullptr) {
      obs::count("descent.iterations");
      obs::count("descent.line_search.probes", probes);
      obs::count(step > 0.0 ? "descent.steps.accepted"
                            : "descent.steps.rejected");
      obs::observe("descent.gradient_norm", obs::decade_bounds(-12, 3),
                   grad_norm);
      if (step > 0.0)
        obs::observe("descent.step_size", obs::decade_bounds(-12, 0), step);
    }
    if (obs::trace_active()) {
      // Per-iteration telemetry: cost U at the analyzed iterate, its
      // per-term breakdown (coverage ΔC, exposure Ē, barrier/energy/entropy
      // contributions), and the transition just taken from it.
      obs::TraceArgs args;
      args.num("iteration", static_cast<double>(result.iterations))
          .num("u", result.cost)
          .num("u_next", new_cost)
          .num("step", step)
          .num("grad_norm", grad_norm)
          .num("probes", static_cast<double>(probes))
          .num("accepted", step > 0.0 ? 1.0 : 0.0);
      for (const auto& [term, value] : terms)
        args.num("term." + term, value);
      obs::trace_instant("descent.iteration", "descent", args);
    }

    // Exact on purpose: 0.0 is the line search's "no acceptable step"
    // sentinel, assigned literally — any accepted step is strictly positive.
    // mocos-lint: allow(float-eq)
    if (step == 0.0) {
      // Line search found no descent: the paper's Δt* = 0 termination
      // (a critical point — possibly one of the many local optima).
      result.cost = new_cost;
      result.reason = StopReason::kNoDescentStep;
      result.p = p;
      finalize();
      return result;
    }

    // Successful iteration: reset the ladder and let the step scale heal.
    last_good = p;
    consecutive_failures = 0;
    step_scale = std::min(1.0, step_scale * 2.0);

    const double change = std::abs(result.cost - new_cost) /
                          std::max(std::abs(result.cost), 1.0);
    result.cost = new_cost;
    if (config_.cost_tolerance > 0.0 && change < config_.cost_tolerance) {
      result.reason = StopReason::kCostTolerance;
      break;
    }
  }
  // On numerical failure the ladder already rolled p back to the last good
  // iterate, so the reported (p, cost) pair is finite and consistent.
  result.p = p;
  finalize();
  return result;
}

}  // namespace mocos::descent
