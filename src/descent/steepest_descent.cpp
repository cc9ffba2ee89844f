#include "src/descent/steepest_descent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/descent/descent_loop.hpp"
#include "src/descent/line_search.hpp"
#include "src/linalg/norms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"

namespace mocos::descent {

namespace {

/// |Π[D_P U]|_F below which the run stops at a critical point.
constexpr double kGradientTolerance = 1e-12;
/// Constant-step stability guard: no entry of P moves more than this per
/// iteration. Near the simplex boundary the barrier gradient grows like 1/p,
/// and Δt·∇U would otherwise catapult an entry across the box in one step.
constexpr double kMaxEntryChange = 0.05;

}  // namespace

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kMaxIterations:
      return "max-iterations";
    case StopReason::kGradientTolerance:
      return "gradient-tolerance";
    case StopReason::kNoDescentStep:
      return "no-descent-step";
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
                                    const linalg::SparseMatrix& v, double t,
                                    double margin) {
  markov::TransitionMatrix out = p;
  apply_step_into(p, v, t, margin, out);
  return out;
}

void apply_step_into(const markov::TransitionMatrix& p,
                     const linalg::SparseMatrix& v, double t, double margin,
                     markov::TransitionMatrix& out) {
  if (!v.shared_pattern() || !(v.pattern() == p.pattern()))
    throw std::invalid_argument("apply_step: V is not on P's pattern");
  if (out.csr().shared_pattern() != p.csr().shared_pattern()) out = p;
  const auto& offsets = p.csr().row_offsets();
  const std::vector<double>& pv = p.csr().values();
  const std::vector<double>& vv = v.values();
  out.refill_rows([&](std::size_t i, double* row) {
    const std::size_t begin = offsets[i];
    const std::size_t len = offsets[i + 1] - begin;
    double row_sum = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t e = begin + k;
      // An explicit zero on the pattern stays exactly zero: the projection
      // gives it a zero direction, and clamping it up to `margin` would
      // reopen a transition the chain had closed.
      // mocos-lint: allow(float-eq)
      if (pv[e] == 0.0 && vv[e] == 0.0) {
        row[k] = 0.0;
        continue;
      }
      const double x = std::clamp(pv[e] + t * vv[e], margin, 1.0 - margin);
      row[k] = x;
      row_sum += x;
    }
    // The direction is row-sum-zero, so row_sum ≈ 1 up to clamping;
    // renormalize exactly.
    for (std::size_t k = 0; k < len; ++k) row[k] /= row_sum;
  });
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
  DescentLoop loop(DescentLoop::Driver::kSteepest, cost_, config_,
                   config_.keep_trace, start);
  // Polak–Ribière+ state (only used by the CG direction policy).
  linalg::SparseMatrix prev_grad;
  linalg::SparseMatrix prev_direction;

  loop.run(config_.max_iterations,
           [&](std::size_t, linalg::SparseMatrix& grad) {
    DescentLoop::Pass pass;
    pass.grad_norm = linalg::frobenius_norm(grad);
    if (pass.grad_norm < kGradientTolerance) {
      pass.stop = StopReason::kGradientTolerance;
      pass.recorded = false;
      return pass;
    }
    linalg::SparseMatrix direction = grad * (-1.0);
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
    const double max_step = loop.max_step(direction);
    {
      // Probe evaluations (and the chain solves they trigger) accumulate
      // under line_search in the phase profile.
      obs::ScopedPhase line_search_phase("line_search");
      if (config_.step_policy == StepPolicy::kConstant) {
        pass.step =
            std::min(config_.constant_step * loop.step_scale(), max_step);
        const double biggest = linalg::max_abs(direction);
        if (biggest > 0.0)
          pass.step = std::min(pass.step, kMaxEntryChange / biggest);
        if (pass.step > 0.0) {
          pass.next.emplace(loop.stepped(direction, pass.step));
          pass.next_cost = loop.cost_at(*pass.next);
          pass.probes = 1;
        }
      } else {
        const LineSearchResult ls = trisection_search(
            [&](double t) { return loop.probe(direction, t); },
            loop.cost(), max_step);
        pass.step = ls.step;
        pass.probes = ls.evaluations;
        if (pass.step > 0.0) {
          pass.next.emplace(loop.stepped(direction, pass.step));
          pass.next_cost = ls.value;
        }
      }
    }
    // A step that lands on a non-finite cost is rejected, not silently
    // accepted: the loop rolls back and the ladder shrinks the trial step.
    if (pass.next && !std::isfinite(pass.next_cost))
      pass.failure = util::Status(util::StatusCode::kStepRejected,
                                  "candidate cost is not finite");
    // No step found: the paper's Δt* = 0 termination (a critical point —
    // possibly one of the many local optima).
    if (!pass.next) pass.stop = StopReason::kNoDescentStep;
    return pass;
  });

  // On numerical failure the ladder already rolled back to the last good
  // iterate, so the reported (p, cost) pair is finite and consistent.
  DescentResult result = loop.finish();
  obs::gauge_set("descent.final_cost", result.cost);
  return result;
}

}  // namespace mocos::descent
