#pragma once

#include <functional>

#include "src/cost/composite_cost.hpp"
#include "src/descent/recovery.hpp"
#include "src/descent/trace.hpp"
#include "src/markov/resolvent.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::descent {

enum class StepPolicy {
  kConstant,   // V1: fixed Δt every iteration
  kLineSearch  // V3: Δt* from the trisection search along −Π[D_P U]
};

enum class DirectionPolicy {
  kSteepest,          // the paper's −Π[D_P U]
  kConjugateGradient  // Polak–Ribière+ nonlinear CG on the projected
                      // gradient (extension; same feasible subspace, fewer
                      // zig-zags in ill-conditioned valleys)
};

enum class StopReason {
  kMaxIterations,
  kGradientTolerance,  // |Π[D_P U]|_F below tolerance
  kNoDescentStep,      // line search returned Δt* = 0 (local optimum)
  kStallLimit,         // perturbed run: no best-cost improvement for too long
  kNumericalFailure,   // recovery ladder exhausted its retry budget; the
                       // result carries the last good iterate and a populated
                       // RecoveryLog instead of NaN
  kCancelled           // DescentConfig::should_stop returned true (request
                       // deadline / server drain); the result carries the
                       // best iterate reached so far, fully finite
};

const char* to_string(StopReason reason);

struct DescentConfig {
  StepPolicy step_policy = StepPolicy::kConstant;
  /// CG requires the line-search step policy (a constant step breaks the
  /// conjugacy rationale); validated at construction.
  DirectionPolicy direction_policy = DirectionPolicy::kSteepest;
  double constant_step = 1e-6;       // the paper's Δt for V1
  std::size_t max_iterations = 20000;
  /// Record the per-iteration trace (disable for bulk CDF experiments).
  bool keep_trace = true;
  /// Consecutive failed evaluations the recovery ladder (DESIGN.md §7.2)
  /// tolerates before the run stops with StopReason::kNumericalFailure.
  /// 0 disables recovery entirely (a failure stops the run immediately,
  /// still without throwing).
  std::size_t recovery_retry_budget = 6;
  /// Cooperative cancellation (serve): polled once per iteration (cheap
  /// next to an O(nnz) probe); returning true stops the run with
  /// StopReason::kCancelled and the best iterate so far. The functor must be
  /// wall-clock-free from the descent's point of view: any clock lives
  /// behind it (mocos_serve's deadline check), so this file stays inside the
  /// determinism lint scope.
  std::function<bool()> should_stop;
};

struct DescentResult {
  markov::TransitionMatrix p;  // final iterate
  double cost = 0.0;           // U_ε at the final iterate
  std::size_t iterations = 0;
  StopReason reason = StopReason::kMaxIterations;
  Trace trace;
  /// Rescue events taken by the recovery ladder (empty on clean runs).
  RecoveryLog recovery;
  /// Chain-solve counters of the evaluator that served every probe of this
  /// run; flows through PerturbedResult and OptimizationOutcome to the
  /// CLI/metrics surface.
  markov::ChainSolveStats chain_stats;
};

/// Cost of a candidate transition matrix; +infinity when the analysis fails
/// (non-ergodic probe, singular fundamental matrix) so searches treat such
/// points as infeasible instead of crashing.
double safe_cost(const cost::CompositeCost& cost,
                 const markov::TransitionMatrix& p);

/// Deterministic steepest descent (paper variants V1/V3; the start matrix
/// selects V1 vs V2). One iteration: analyze chain → gradient (Eq. 10) →
/// project (Eq. 11) → step along −Π[D_P U] → clamp into the feasible box.
class SteepestDescent {
 public:
  SteepestDescent(const cost::CompositeCost& cost, DescentConfig config);

  [[nodiscard]] DescentResult run(const markov::TransitionMatrix& start) const;

  const DescentConfig& config() const { return config_; }

 private:
  const cost::CompositeCost& cost_;
  DescentConfig config_;
};

/// Applies P + t·V on P's pattern (V must live there) and clamps entries
/// into [margin, 1-margin], renormalizing rows exactly; the result keeps
/// P's pattern object. Shared by the deterministic and perturbed drivers.
markov::TransitionMatrix apply_step(const markov::TransitionMatrix& p,
                                    const linalg::SparseMatrix& v, double t,
                                    double margin);

/// apply_step into a caller-owned matrix, bit for bit: `out` takes P's
/// pattern object (a copy of `p` when it is on another one) and each row is
/// stepped, renormalized and validated before the next, so reusing `out`
/// costs no allocation. std::invalid_argument as apply_step.
void apply_step_into(const markov::TransitionMatrix& p,
                     const linalg::SparseMatrix& v, double t, double margin,
                     markov::TransitionMatrix& out);

}  // namespace mocos::descent
