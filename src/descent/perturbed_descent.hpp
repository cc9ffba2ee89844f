#pragma once

#include "src/descent/steepest_descent.hpp"
#include "src/util/rng.hpp"

namespace mocos::descent {

/// Configuration of the stochastically perturbed algorithm (variant V4).
struct PerturbedConfig {
  /// Inner deterministic machinery (retry budget, cancellation, and the
  /// quench's step policy).
  DescentConfig base;
  /// Relative standard deviation σ0 of the mean-zero Gaussian noise added
  /// entrywise to [D_P U] before projection. The noise scales with the
  /// gradient's RMS entry magnitude (floored at a tenth of the first
  /// iteration's) and cools on the acceptance temperature's logarithmic
  /// schedule, σ_t = σ0 · rms · log(2)/log(t+2): strong early perturbations
  /// jump out of local optima; late iterations refine the best basin.
  double noise_sigma = 2.0;
  /// The paper's annealing constant k: acceptance probability for a
  /// worsening move is exp(−Δ_U / T(count)) with temperature
  /// T(count) = k / log(count + 2). (The paper prints "k × log(count)", but
  /// with its own description — acceptance decreasing over time — and its
  /// Hajek citation, the logarithmic *cooling* schedule k/log(count) is the
  /// consistent reading.) Δ_U is the cost worsening normalized by the best
  /// cost found so far.
  double annealing_k = 10000.0;
  std::size_t max_iterations = 4000;
  /// Stop early when the best cost has not improved (relatively) for this
  /// many iterations; 0 disables.
  std::size_t stall_limit = 0;
  double stall_relative_improvement = 1e-6;
  /// After the stochastic phase, quench: run the deterministic line-search
  /// descent from the best iterate until it hits a critical point. The
  /// stochastic phase finds the right basin; the quench gives the paper's
  /// "extremely close to the global optimum" final precision.
  std::size_t polish_iterations = 400;
  bool keep_trace = true;
};

struct PerturbedResult {
  markov::TransitionMatrix best_p;  // best iterate seen
  double best_cost = 0.0;
  double final_cost = 0.0;  // cost of the last accepted iterate
  /// Stochastic-phase passes, failed and pinned ones included.
  std::size_t iterations = 0;
  Trace trace;
  /// Why the stochastic phase ended: kMaxIterations, kStallLimit, or
  /// kNumericalFailure when the recovery ladder ran out of retries (the
  /// best-seen iterate is still returned).
  StopReason reason = StopReason::kMaxIterations;
  /// Rescue events taken by the recovery ladder (empty on clean runs).
  RecoveryLog recovery;
  /// Chain-solve counters summed over the stochastic phase's evaluator and
  /// the quench polish's (each phase runs its own evaluator).
  markov::ChainSolveStats chain_stats;
};

/// The paper's stochastically perturbed steepest descent (V2+V3+V4):
/// per iteration, perturb [D_P U] with Gaussian noise, project, line-search;
/// if the search yields Δt* = 0 take a random feasible step instead; accept
/// improving moves always and worsening moves with the annealed probability.
/// The best-seen iterate is tracked and returned.
class PerturbedDescent {
 public:
  PerturbedDescent(const cost::CompositeCost& cost, PerturbedConfig config);

  [[nodiscard]] PerturbedResult run(const markov::TransitionMatrix& start,
                      util::Rng& rng) const;

  const PerturbedConfig& config() const { return config_; }

 private:
  const cost::CompositeCost& cost_;
  PerturbedConfig config_;
};

}  // namespace mocos::descent
