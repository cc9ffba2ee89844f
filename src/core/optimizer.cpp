#include "src/core/optimizer.hpp"

#include <stdexcept>
#include <utility>

#include "src/descent/initializers.hpp"
#include "src/descent/multi_start.hpp"

namespace mocos::core {

namespace {

/// The perturbed (V4) driver configuration both the single-start and the
/// multi-start paths run.
descent::PerturbedConfig perturbed_config(const OptimizerOptions& options) {
  descent::PerturbedConfig cfg;
  cfg.base.step_policy = descent::StepPolicy::kLineSearch;
  cfg.base.keep_trace = options.keep_trace;
  cfg.base.should_stop = options.should_stop;
  cfg.noise_sigma = options.noise_sigma;
  cfg.annealing_k = options.annealing_k;
  cfg.max_iterations = options.max_iterations;
  cfg.stall_limit = options.stall_limit;
  cfg.keep_trace = options.keep_trace;
  return cfg;
}

}  // namespace

CoverageOptimizer::CoverageOptimizer(const Problem& problem,
                                     OptimizerOptions options)
    : problem_(problem), options_(options) {
  if (options_.max_iterations == 0)
    throw std::invalid_argument("CoverageOptimizer: max_iterations == 0");
}

OptimizationOutcome CoverageOptimizer::finish(
    Algorithm algorithm, markov::TransitionMatrix best, double cost,
    std::size_t iterations, descent::Trace trace,
    descent::StopReason stop_reason, descent::RecoveryLog recovery,
    markov::ChainSolveStats chain_stats) const {
  cost::Metrics metrics = problem_.metrics_of(best);
  const double report =
      metrics.cost(problem_.weights().alpha, problem_.weights().beta);
  return OptimizationOutcome{algorithm,
                             std::move(best),
                             cost,
                             std::move(metrics),
                             report,
                             iterations,
                             std::move(trace),
                             stop_reason,
                             std::move(recovery),
                             chain_stats};
}

OptimizationOutcome CoverageOptimizer::run(
    const runtime::ExecutionContext& ctx) const {
  if (options_.starts > 1) {
    if (options_.algorithm != Algorithm::kPerturbed)
      throw std::invalid_argument(
          "CoverageOptimizer: starts > 1 requires the perturbed algorithm");
    // Multi-start draws dense random starts, which would put probability on
    // transitions outside the support that no coverage entry prices.
    if (!problem_.support().empty())
      throw std::invalid_argument(
          "CoverageOptimizer: starts > 1 is not supported with "
          "support_radius > 0");
    const cost::CompositeCost cost =
        problem_.make_cost(options_.smoothmax_beta_override);
    descent::MultiStartConfig cfg;
    cfg.starts = options_.starts;
    cfg.random_start = options_.random_start;
    cfg.perturbed = perturbed_config(options_);
    util::Rng rng(options_.seed);
    descent::MultiStartResult ms = descent::multi_start_perturbed(
        cost, problem_.num_pois(), cfg, rng, ctx);
    return finish(Algorithm::kPerturbed, std::move(ms.best.best_p),
                  ms.best.best_cost, ms.best.iterations,
                  std::move(ms.best.trace), ms.best.reason,
                  std::move(ms.best.recovery), ms.best.chain_stats);
  }
  util::Rng rng(options_.seed);
  // A support-restricted problem must start on its support: its coverage
  // entries cover only the support, so a dense start would put probability
  // on transitions whose coverage was never computed (and would defeat the
  // sparse chain solver besides).
  if (!problem_.support().empty())
    return run(descent::support_uniform_start(problem_.pattern()));
  const markov::TransitionMatrix start =
      options_.random_start ? descent::random_start(problem_.num_pois(), rng)
                            : descent::uniform_start(problem_.num_pois());
  return run(start);
}

OptimizationOutcome CoverageOptimizer::run(
    const markov::TransitionMatrix& start) const {
  problem_.require_on_support(start);
  const cost::CompositeCost cost =
      problem_.make_cost(options_.smoothmax_beta_override);

  if (options_.algorithm == Algorithm::kPerturbed) {
    descent::PerturbedDescent driver(cost, perturbed_config(options_));
    // The RNG must differ from the one used for the start matrix so reruns
    // from an explicit start stay reproducible from the seed alone.
    util::Rng rng(options_.seed ^ 0x5eedULL);
    descent::PerturbedResult res = driver.run(start, rng);
    return finish(Algorithm::kPerturbed, std::move(res.best_p), res.best_cost,
                  res.iterations, std::move(res.trace), res.reason,
                  std::move(res.recovery), res.chain_stats);
  }

  descent::DescentConfig cfg;
  cfg.max_iterations = options_.max_iterations;
  cfg.keep_trace = options_.keep_trace;
  cfg.should_stop = options_.should_stop;
  if (options_.algorithm == Algorithm::kAdaptive) {
    cfg.step_policy = descent::StepPolicy::kLineSearch;
  } else {
    cfg.step_policy = descent::StepPolicy::kConstant;
    cfg.constant_step = options_.constant_step;
  }
  descent::SteepestDescent driver(cost, cfg);
  descent::DescentResult res = driver.run(start);
  return finish(options_.algorithm, std::move(res.p), res.cost, res.iterations,
                std::move(res.trace), res.reason, std::move(res.recovery),
                res.chain_stats);
}

}  // namespace mocos::core
