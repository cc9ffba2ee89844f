#include "src/descent/perturbed_descent.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cost/gradient.hpp"
#include "src/cost/projection.hpp"
#include "src/descent/cached_cost.hpp"
#include "src/descent/step_bounds.hpp"
#include "src/linalg/norms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::descent {

PerturbedDescent::PerturbedDescent(const cost::CompositeCost& cost,
                                   PerturbedConfig config)
    : cost_(cost), config_(config) {
  if (config_.noise_sigma < 0.0)
    throw std::invalid_argument("PerturbedDescent: noise_sigma < 0");
  if (config_.annealing_k <= 0.0)
    throw std::invalid_argument("PerturbedDescent: annealing_k <= 0");
  if (config_.max_iterations == 0)
    throw std::invalid_argument("PerturbedDescent: max_iterations == 0");
}

PerturbedResult PerturbedDescent::run(const markov::TransitionMatrix& start,
                                      util::Rng& rng) const {
  markov::TransitionMatrix p = start;
  // One evaluator for the whole stochastic run (gradient, line-search
  // probes, and acceptance evaluations).
  CachedCostEvaluator evaluator(cost_);
  double current = evaluator.cost_at(p);
  if (std::isinf(current))
    throw std::invalid_argument("PerturbedDescent: infeasible start matrix");

  PerturbedResult result{p, current, p, current, 0, 0, 0, Trace{},
                         StopReason::kMaxIterations, RecoveryLog{},
                         markov::ChainSolveStats{}};
  obs::count("descent.perturbed.runs");
  obs::ScopedSpan run_span("descent.perturbed_run", "descent");
  obs::ScopedPhase run_phase("descent.perturbed_run");
  double margin = config_.base.probability_margin;
  markov::SolvePolicy policy = markov::SolvePolicy::kAuto;
  std::size_t consecutive_failures = 0;
  std::size_t since_improvement = 0;
  double initial_rms = 0.0;  // anchor for the relative-noise floor

  // The stochastic driver's recovery ladder: the current iterate is always
  // the last accepted (finite-cost) one, so "rollback" means discarding the
  // failed evaluation; the escalation widens the interior margin to pull the
  // chain off the simplex boundary. Returns false on budget exhaustion.
  auto recover = [&](std::size_t it, const util::Status& cause) -> bool {
    ++consecutive_failures;
    if (consecutive_failures > config_.base.recovery_retry_budget) {
      result.recovery.record(it, RecoveryAction::kAbandoned, cause.code(),
                             "retry budget exhausted: " + cause.message());
      result.reason = StopReason::kNumericalFailure;
      return false;
    }
    result.recovery.record(it, RecoveryAction::kRollback, cause.code(),
                           cause.message());
    if (consecutive_failures >= 2 &&
        margin < config_.base.recovery_margin_cap) {
      margin = std::min(std::max(margin, 1e-12) *
                            config_.base.recovery_margin_growth,
                        config_.base.recovery_margin_cap);
      p = reproject_interior(p, margin);
      const double refreshed = evaluator.cost_at(p);
      if (std::isfinite(refreshed)) current = refreshed;
      result.recovery.record(it, RecoveryAction::kMarginWidened, cause.code(),
                             "margin " + std::to_string(margin));
    }
    return true;
  };

  for (std::size_t it = 0; it < config_.max_iterations; ++it) {
    // Cooperative cancellation (request deadlines, server drain); the
    // best-seen iterate is still returned, so a deadline-cut run degrades
    // to "the best schedule found in the time allowed".
    if (config_.base.should_stop && config_.base.should_stop()) {
      result.reason = StopReason::kCancelled;
      break;
    }
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
      ++result.iterations;
      if (!recover(it, chain.status())) break;
      continue;
    }
    linalg::Matrix grad;
    {
      obs::ScopedPhase phase("gradient_assembly");
      grad = cost::cost_gradient(cost_, **chain);
    }
    // The trace reports this iterate's per-term breakdown; take it now, since
    // the line-search probes below replace the evaluator's analysis.
    std::vector<std::pair<std::string, double>> terms;
    if (obs::trace_active()) terms = cost_.breakdown(**chain);
    const util::Status grad_ok = util::check_finite(grad, "gradient");
    if (!grad_ok.is_ok()) {
      ++result.iterations;
      if (!recover(it, grad_ok)) break;
      continue;
    }

    // V4: mean-zero Gaussian perturbation of [D_P U].
    if (config_.noise_sigma > 0.0) {
      double sigma = config_.noise_sigma;
      if (config_.relative_noise) {
        const double rms =
            linalg::frobenius_norm(grad) /
            std::sqrt(static_cast<double>(grad.rows() * grad.cols()));
        if (it == 0) initial_rms = rms;
        // Floor at a fraction of the initial gradient scale: near critical
        // points the gradient (and with it a purely relative noise) would
        // collapse exactly when escaping a local optimum needs the noise
        // most.
        sigma *= std::max({rms, 0.1 * initial_rms, 1e-12});
      }
      if (config_.decay_noise)
        sigma *= std::log(2.0) / std::log(static_cast<double>(it) + 2.0);
      for (std::size_t i = 0; i < grad.rows(); ++i)
        for (std::size_t j = 0; j < grad.cols(); ++j)
          grad(i, j) += rng.gaussian(0.0, sigma);
    }
    const linalg::Matrix direction =
        cost::project_row_sum_zero(grad) * (-1.0);
    const double grad_norm = linalg::frobenius_norm(direction);
    const double max_step = max_feasible_step(p.matrix(), direction, margin);

    // The line-search probes and the candidate's evaluation (with the chain
    // solves they trigger) accumulate under line_search in the phase
    // profile, as in the steepest driver.
    std::optional<obs::ScopedPhase> line_search_phase;
    line_search_phase.emplace("line_search");
    auto phi = [&](double t) {
      return evaluator.cost_at(apply_step(p, direction, t, margin));
    };
    const LineSearchResult ls =
        trisection_search(phi, current, max_step, config_.base.line_search);

    double step = ls.step;
    // Exact on purpose (both sites below): 0.0 is the line search's "no
    // acceptable step" sentinel, assigned literally, never computed.
    // mocos-lint: allow(float-eq)
    if (step == 0.0 && max_step > 0.0) {
      // Line search is stuck (Δt* = 0): take a random feasible step, the
      // paper's escape move.
      step = rng.uniform(0.0, max_step);
      ++result.random_steps;
      obs::count("descent.random_steps");
    }
    // mocos-lint: allow(float-eq)
    if (step == 0.0) {
      ++result.iterations;
      continue;  // direction pinned against the boundary; resample noise
    }

    const markov::TransitionMatrix candidate =
        apply_step(p, direction, step, margin);
    const double cand_cost = evaluator.cost_at(candidate);
    line_search_phase.reset();

    bool accept = cand_cost < current;
    if (!accept && std::isfinite(cand_cost)) {
      // Normalized worsening; temperature cools as k / log(count + 2).
      const double denom = std::max(std::abs(result.best_cost), 1e-300);
      const double delta_u = (cand_cost - current) / denom;
      const double temperature =
          config_.annealing_k /
          std::log(static_cast<double>(it) + 2.0);
      accept = rng.bernoulli(std::exp(-delta_u / temperature));
      if (accept) {
        ++result.accepted_worsening;
        obs::count("descent.worsening_accepted");
      }
    }

    ++result.iterations;
    consecutive_failures = 0;  // the evaluation itself succeeded
    if (accept) {
      p = candidate;
      current = cand_cost;
      if (current < result.best_cost) {
        const double gain = (result.best_cost - current) /
                            std::max(std::abs(result.best_cost), 1e-300);
        result.best_cost = current;
        result.best_p = p;
        since_improvement =
            (gain > config_.stall_relative_improvement) ? 0
                                                        : since_improvement + 1;
      } else {
        ++since_improvement;
      }
    } else {
      ++since_improvement;
    }

    if (config_.keep_trace)
      result.trace.record(
          {result.iterations, current, step, grad_norm, accept});

    if (obs::current_metrics() != nullptr) {
      obs::count("descent.iterations");
      obs::count("descent.line_search.probes", ls.evaluations);
      obs::count(accept ? "descent.steps.accepted"
                        : "descent.steps.rejected");
      obs::observe("descent.gradient_norm", obs::decade_bounds(-12, 3),
                   grad_norm);
      obs::observe("descent.step_size", obs::decade_bounds(-12, 0), step);
    }
    if (obs::trace_active()) {
      obs::TraceArgs args;
      args.num("iteration", static_cast<double>(result.iterations))
          .num("u", current)
          .num("step", step)
          .num("grad_norm", grad_norm)
          .num("probes", static_cast<double>(ls.evaluations))
          .num("accepted", accept ? 1.0 : 0.0);
      for (const auto& [term, value] : terms)
        args.num("term." + term, value);
      obs::trace_instant("descent.iteration", "descent", args);
    }

    if (config_.stall_limit > 0 && since_improvement >= config_.stall_limit) {
      result.reason = StopReason::kStallLimit;
      break;
    }
  }

  // The quench polish reports its own chain-solve metrics inside run(); only
  // the stochastic phase's evaluator is recorded here, so counters never
  // double.
  result.chain_stats = evaluator.stats();
  record_cache_metrics(result.chain_stats);

  // A cancelled run skips the quench: the deadline already expired, and the
  // polish would burn an unbounded extra slice of it.
  if (config_.polish_iterations > 0 &&
      result.reason != StopReason::kCancelled) {
    DescentConfig quench = config_.base;
    quench.step_policy = StepPolicy::kLineSearch;
    quench.max_iterations = config_.polish_iterations;
    quench.keep_trace = false;
    const DescentResult polished =
        SteepestDescent(cost_, quench).run(result.best_p);
    result.chain_stats.add(polished.chain_stats);
    if (polished.cost < result.best_cost &&
        std::isfinite(polished.cost)) {
      result.best_cost = polished.cost;
      result.best_p = polished.p;
    }
  }
  obs::gauge_set("descent.final_cost", result.best_cost);

  result.final_p = p;
  result.final_cost = current;
  return result;
}

}  // namespace mocos::descent
