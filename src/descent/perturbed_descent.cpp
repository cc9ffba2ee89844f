#include "src/descent/perturbed_descent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/cost/projection.hpp"
#include "src/descent/descent_loop.hpp"
#include "src/descent/line_search.hpp"
#include "src/linalg/norms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"

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
  DescentLoop loop(DescentLoop::Driver::kPerturbed, cost_, config_.base,
                   config_.keep_trace, start);
  markov::TransitionMatrix best_p = start;
  double best_cost = loop.cost();
  std::size_t since_improvement = 0;
  double initial_rms = 0.0;  // anchor for the relative-noise floor

  loop.run(config_.max_iterations,
           [&](std::size_t it, linalg::SparseMatrix& grad) {
    DescentLoop::Pass pass;
    // V4: mean-zero Gaussian perturbation of [D_P U]. The gradient lives on
    // P's pattern, so the noise, its rms scale and the projection cover the
    // transitions the chain may take and nothing else: the direction keeps
    // a support-restricted chain's structural zeros and steps stay feasible.
    if (config_.noise_sigma > 0.0) {
      const double rms = linalg::frobenius_norm(grad) /
                         std::sqrt(static_cast<double>(grad.nnz()));
      if (it == 0) initial_rms = rms;
      // Floor at a fraction of the initial gradient scale: near critical
      // points the gradient (and with it a purely relative noise) would
      // collapse exactly when escaping a local optimum needs the noise most.
      const double sigma =
          config_.noise_sigma * std::max({rms, 0.1 * initial_rms, 1e-12}) *
          (std::log(2.0) / std::log(static_cast<double>(it) + 2.0));
      for (double& g : grad.values()) g += rng.gaussian(0.0, sigma);
    }
    const linalg::SparseMatrix direction =
        cost::project_row_sum_zero_on_support(grad, loop.iterate()) * (-1.0);
    pass.grad_norm = linalg::frobenius_norm(direction);
    const double max_step = loop.max_step(direction);
    {
      // The line-search probes and the candidate's evaluation (with the
      // chain solves they trigger) accumulate under line_search in the phase
      // profile, as in the steepest driver.
      obs::ScopedPhase line_search_phase("line_search");
      const LineSearchResult ls = trisection_search(
          [&](double t) { return loop.probe(direction, t); },
          loop.cost(), max_step);
      pass.probes = ls.evaluations;
      pass.step = ls.step;
      // Exact on purpose (both sites below): 0.0 is the line search's "no
      // acceptable step" sentinel, assigned literally, never computed.
      // mocos-lint: allow(float-eq)
      if (pass.step == 0.0 && max_step > 0.0) {
        // Line search is stuck (Δt* = 0): take a random feasible step, the
        // paper's escape move.
        pass.step = rng.uniform(0.0, max_step);
        obs::count("descent.random_steps");
      }
      // mocos-lint: allow(float-eq)
      if (pass.step == 0.0) {
        // Pinned: the direction points out of the simplex, so no step is
        // feasible. Recorded as a rejected zero step; the next pass draws
        // fresh noise.
        obs::count("descent.steps.pinned");
        return pass;
      }
      pass.next.emplace(loop.stepped(direction, pass.step));
      pass.next_cost = loop.cost_at(*pass.next);
    }

    bool accept = pass.next_cost < loop.cost();
    if (!accept && std::isfinite(pass.next_cost)) {
      // Normalized worsening; temperature cools as k / log(count + 2).
      const double denom = std::max(std::abs(best_cost), 1e-300);
      const double delta_u = (pass.next_cost - loop.cost()) / denom;
      const double temperature =
          config_.annealing_k / std::log(static_cast<double>(it) + 2.0);
      accept = rng.bernoulli(std::exp(-delta_u / temperature));
      if (accept) obs::count("descent.worsening_accepted");
    }
    if (accept && pass.next_cost < best_cost) {
      const double gain = (best_cost - pass.next_cost) /
                          std::max(std::abs(best_cost), 1e-300);
      best_cost = pass.next_cost;
      best_p = *pass.next;
      since_improvement =
          (gain > config_.stall_relative_improvement) ? 0
                                                      : since_improvement + 1;
    } else {
      ++since_improvement;
    }
    if (!accept) pass.next.reset();
    if (config_.stall_limit > 0 && since_improvement >= config_.stall_limit)
      pass.stop = StopReason::kStallLimit;
    return pass;
  });

  DescentResult walk = loop.finish();
  PerturbedResult result{std::move(best_p),     best_cost,
                         walk.cost,             loop.passes(),
                         std::move(walk.trace), walk.reason,
                         std::move(walk.recovery), walk.chain_stats};

  // A cancelled run skips the quench: the deadline already expired, and the
  // polish would burn an unbounded extra slice of it. The quench records
  // its own chain-solve metrics; the stochastic phase's were exported by
  // finish() above, so counters never double.
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
  return result;
}

}  // namespace mocos::descent
