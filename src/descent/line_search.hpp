#pragma once

#include <cstddef>
#include <functional>

namespace mocos::descent {

struct LineSearchConfig {
  /// Stop when the bracketing interval is narrower than
  /// relative_tolerance * initial_width (plus an absolute floor).
  double relative_tolerance = 1e-4;
  double absolute_tolerance = 1e-15;
  /// Hard cap on objective evaluations per search.
  std::size_t max_evaluations = 200;
  /// Treat the searched minimum as "no improvement" (Δt* = 0) unless it
  /// beats φ(0) by at least improvement_margin +
  /// relative_improvement_margin * |φ(0)| — the paper's local-optimum
  /// termination test, with the relative part keeping the threshold above
  /// floating-point noise for large cost magnitudes.
  double improvement_margin = 1e-14;
  double relative_improvement_margin = 1e-12;
};

struct LineSearchResult {
  double step = 0.0;        // Δt* (0 means: no descent along this direction)
  double value = 0.0;       // φ(Δt*)
  std::size_t evaluations = 0;
};

/// The paper's V3 step-size rule: minimize φ(δ) = U(P − δ∇U) over
/// δ ∈ [0, max_step] with a conservative trisection (each round evaluates the
/// two interior third-points and discards only one outer sub-interval).
/// φ may return +infinity for infeasible probes (barrier / non-ergodic).
///
/// The descent drivers pass a φ backed by CachedCostEvaluator, so a probe of
/// the P just analyzed costs no chain solve. φ itself stays a plain
/// callable — the search is agnostic to how the objective is produced.
LineSearchResult trisection_search(const std::function<double(double)>& phi,
                                   double phi_at_zero, double max_step,
                                   const LineSearchConfig& config = {});

}  // namespace mocos::descent
