#pragma once

#include <string>

#include "src/cost/metrics.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/descent/trace.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::core {

/// Which algorithm variant produced a result (§V naming).
enum class Algorithm {
  kBasic,      // V1 (+V2 if started from a random matrix)
  kAdaptive,   // V1+V2+V3: random start + trisection line search
  kPerturbed   // V1+V2+V3+V4: + gradient noise and annealed acceptance
};

std::string to_string(Algorithm a);

/// Outcome of one optimization run through the CoverageOptimizer facade.
struct OptimizationOutcome {
  Algorithm algorithm = Algorithm::kBasic;
  markov::TransitionMatrix p;   // best schedule found
  double penalized_cost = 0.0;  // U_ε at p
  cost::Metrics metrics;        // ΔC, Ē, C̄_i, Ē_i at p
  double report_cost = 0.0;     // Eq. 14: ½αΔC + ½βĒ²
  std::size_t iterations = 0;
  descent::Trace trace;
  /// Why the driving descent stopped; kNumericalFailure means the recovery
  /// ladder gave up and (p, costs) describe the last good iterate.
  descent::StopReason stop_reason = descent::StopReason::kMaxIterations;
  /// Rescue events the descent needed (empty on clean runs).
  descent::RecoveryLog recovery;
  /// Chain-solve counters of the run that produced p (all evaluators the
  /// winning descent used). Deterministic for a fixed seed, so tests can
  /// assert non-zero hit counts.
  markov::ChainSolveStats chain_stats;

  /// Multi-line human-readable summary (used by the examples).
  std::string summary() const;
};

}  // namespace mocos::core
