#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "src/core/problem.hpp"
#include "src/core/result.hpp"
#include "src/descent/perturbed_descent.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/runtime/execution_context.hpp"

namespace mocos::core {

struct OptimizerOptions {
  Algorithm algorithm = Algorithm::kPerturbed;
  /// V2: start from a random ergodic matrix instead of the uniform one.
  bool random_start = false;
  std::uint64_t seed = 1;
  std::size_t max_iterations = 2000;
  /// V1 constant step (the paper's Δt = 1e-6 in §VI).
  double constant_step = 1e-6;
  /// V4 parameters.
  double noise_sigma = 2.0;
  double annealing_k = 10000.0;
  std::size_t stall_limit = 400;  // early exit for the perturbed algorithm
  bool keep_trace = true;
  /// Multi-start (perturbed algorithm only): run this many independent
  /// V2-random starts and keep the best — the paper's Fig. 2 protocol as a
  /// single call. Starts run on the ExecutionContext handed to run(); the
  /// winner is bit-identical for any job count. run() refuses starts > 1 on
  /// a support-restricted problem: the random starts are dense.
  std::size_t starts = 1;
  /// Cooperative cancellation: polled once per descent iteration; returning
  /// true ends the run with StopReason::kCancelled and the best iterate so
  /// far (mocos_serve request deadlines). Null: never stops early.
  std::function<bool()> should_stop;
  /// Per-run override of the minimax term's smooth-max temperature β
  /// (nullopt keeps the Weights value). The β-annealing driver raises this
  /// across warm-started stages so early stages see a soft, well-conditioned
  /// max and late stages approach the hard worst case.
  std::optional<double> smoothmax_beta_override;
};

/// Facade tying the problem, the cost construction, and the §V algorithm
/// variants into one call — the typical downstream entry point:
///
///   core::Problem problem(topology, {}, {.alpha = 1, .beta = 1});
///   core::CoverageOptimizer opt(problem, {});
///   auto outcome = opt.run();
///   // outcome.p drives the sensor; outcome.metrics reports ΔC, Ē, ...
class CoverageOptimizer {
 public:
  CoverageOptimizer(const Problem& problem, OptimizerOptions options);

  /// Runs with a start matrix chosen per options (uniform or V2-random).
  /// With options.starts > 1 (perturbed algorithm), runs the multi-start
  /// protocol on `ctx` and returns the winner.
  [[nodiscard]] OptimizationOutcome run(
      const runtime::ExecutionContext& ctx = {}) const;

  /// Runs from an explicit start matrix (single start);
  /// std::invalid_argument when it leaves the problem's support.
  [[nodiscard]] OptimizationOutcome run(
      const markov::TransitionMatrix& start) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  OptimizationOutcome finish(Algorithm algorithm,
                             markov::TransitionMatrix best, double cost,
                             std::size_t iterations, descent::Trace trace,
                             descent::StopReason stop_reason,
                             descent::RecoveryLog recovery,
                             markov::ChainSolveStats chain_stats) const;

  const Problem& problem_;
  OptimizerOptions options_;
};

}  // namespace mocos::core
