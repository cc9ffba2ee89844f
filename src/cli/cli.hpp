#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/optimizer.hpp"
#include "src/core/problem.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/config.hpp"

namespace mocos::cli {

/// Builds a Problem from a parsed config. Recognized keys:
///
///   topology  = grid:RxC | points:x,y;x,y;... | city:N[:seed]   (required;
///               city: = seeded jittered-grid map for city-scale runs, with
///               its own random targets unless `targets` is set)
///   targets   = t1,t2,...                          (default: uniform)
///   cell      = <double>                           (grid/city cell size, def. 1)
///   speed, pause, radius                           (physics; defaults 1/1/.25)
///   support_radius = <double>  (when > 0: restrict transitions to PoI pairs
///               within this travel distance; the coverage entries are then
///               listed over that support only. Not supported with
///               starts > 1; a load_schedule outside the support is refused)
///   alpha, beta, epsilon                           (objective weights)
///   energy_gamma, energy_target, entropy_weight    (§VII extensions)
///   event_rates = l1,l2,...   (per-PoI Poisson event rates λ_i; enables the
///               information-capture term when information_gamma > 0 and
///               feeds the event-capture term when capture_weight > 0; both
///               compose with support_radius > 0)
///   information_gamma = <double>   (information-capture weight, default 1;
///               <= 0 disables that term even with event_rates set)
///   capture_weight, capture_duration   (event-capture objective: weight > 0
///               adds 1 − expected captured-event fraction for events that
///               persist `capture_duration` transitions; defaults 0 / 1.
///               Needs only (π, Z), so it composes with support_radius > 0)
///   lambda_skew = <double>    (rate profile λ_i ∝ (i+1)^-skew, normalized,
///               used by the capture term when event_rates is empty;
///               0 = uniform)
///   minimax_weight, smoothmax_beta   (smooth worst-PoI exposure objective:
///               weight > 0 adds the log-sum-exp smooth max of the per-PoI
///               mean exposures at temperature smoothmax_beta, default 8)
///   obstacle  = rect:minx,miny,maxx,maxy | poly:x,y;x,y;...   (repeatable;
///               switches to the obstacle-aware routed motion model)
///   clearance = <double>                           (route corner margin)
///
/// Throws std::invalid_argument / std::runtime_error with a message naming
/// the offending key on any malformed input.
core::Problem build_problem(const util::Config& config);

/// Produces the schedule a config asks for: either audits the matrix named
/// by `load_schedule` or optimizes one. Optimizer keys:
///
///   algorithm  = basic | adaptive | perturbed      (default perturbed)
///   iterations = <n>         seed = <n>            random_start = <bool>
///   step       = <double>    (basic algorithm's Δt)
///   starts     = <n>         (perturbed only: multi-start count, runs on
///                             `ctx`; the winner is bit-identical for any
///                             job count; refused with support_radius > 0)
///   smoothmax_beta_final = <double>, smoothmax_anneal_stages = <n>
///                            (β annealing: with stages >= 2 the run splits
///                             into that many warm-started legs — iterations
///                             divided evenly — whose smooth-max temperature
///                             climbs geometrically from smoothmax_beta to
///                             smoothmax_beta_final; requires
///                             minimax_weight > 0 and starts = 1)
///
/// Shared by the single-run CLI and the batch runner.
core::OptimizationOutcome run_optimization(const util::Config& config,
                                           const core::Problem& problem,
                                           const runtime::ExecutionContext& ctx);

/// Per-request hooks mocos_serve threads into an optimization run; all
/// fields optional, and the default-constructed value reproduces the plain
/// run_optimization behavior bit for bit.
struct RunHooks {
  /// Polled once per descent iteration; true stops the run with
  /// StopReason::kCancelled (request deadline / drain).
  std::function<bool()> should_stop;
  /// Start matrix override (the previous solution of a same-topology
  /// session); ignored when its size does not match the problem, when it
  /// leaves the problem's support, or when the config asks for multi-start /
  /// a loaded schedule.
  const markov::TransitionMatrix* warm_start = nullptr;
  /// Out-field: set to true iff `warm_start` was actually used as the start
  /// matrix (the decline paths above leave it untouched), so callers can
  /// report warm-start usage truthfully instead of guessing the conditions.
  bool* warm_start_applied = nullptr;
  /// Seed override applied when the config does not set `seed` (mocos_serve
  /// derives it from the request id so replays are scheduling-independent).
  std::optional<std::uint64_t> default_seed;
};

/// run_optimization with serve-layer hooks (deadline cancellation, warm
/// starts, request-id-keyed seeds).
core::OptimizationOutcome run_optimization(const util::Config& config,
                                           const core::Problem& problem,
                                           const runtime::ExecutionContext& ctx,
                                           const RunHooks& hooks);

/// Runs the full CLI. Usage:
///
///   mocos_cli [--jobs N] [--summary FILE] [--metrics FILE] [--trace FILE]
///             [--profile FILE] <config-file>
///   mocos_cli [--jobs N] [--summary FILE] [--metrics FILE] [--trace FILE]
///             [--profile FILE] --batch <dir-or-list>
///
/// --profile accumulates exclusive/inclusive wall time per named phase
/// (chain solves, gradient assembly, line-search probes, sparse ladder
/// stages, cost terms) into a JSON side file; feed it to
/// tools/trace/trace2flame.py for collapsed stacks and a flamegraph.
///
/// Single mode parses the config file, optimizes, and prints the outcome
/// (plus an optional validation simulation when `simulate = <transitions>`
/// is set; with `replications = R` the validation runs R replicated
/// simulations — in parallel under --jobs — and reports mean/p25/p75).
///
/// Batch mode expands the --batch spec (a directory of *.conf files or a
/// list file with one config path per line) and runs every scenario through
/// one worker pool. Scenario failures are isolated: a bad config or a
/// numerical failure marks that scenario in the summary and the batch keeps
/// going. The machine-readable JSON summary goes to `out` (and to the
/// --summary file when given) and is byte-identical for any --jobs value.
///
/// Returns a process exit code, reporting problems as a one-line diagnostic
/// on `err`:
///   0  success (batch: every scenario succeeded)
///   1  unexpected runtime failure
///   2  usage or configuration error (unreadable/malformed config, bad keys,
///      mismatched schedule, ...)
///   3  numerical failure (singular factorization, non-ergodic chain,
///      non-finite values, exhausted descent recovery ladder)
///   4  batch completed but at least one scenario failed
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// Exit codes returned by run_cli, kept as named constants for tests and
/// wrapping scripts. mocos_serve reuses the same taxonomy as per-response
/// `code` values (a response is a scenario-scoped exit), extending it with
/// the two request-lifecycle outcomes a batch run cannot have: a deadline
/// that expired (5) and an admission-control shed (6).
inline constexpr int kExitSuccess = 0;
inline constexpr int kExitRuntimeError = 1;
inline constexpr int kExitBadConfig = 2;
inline constexpr int kExitNumericalFailure = 3;
inline constexpr int kExitBatchPartialFailure = 4;
inline constexpr int kExitDeadlineExceeded = 5;  // serve responses only
inline constexpr int kExitShed = 6;              // serve responses only

}  // namespace mocos::cli
