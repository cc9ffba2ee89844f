#pragma once

// Shared scaffolding for the paper-reproduction bench harnesses. Each bench
// binary reproduces one table or figure of the ICDCS'10 paper and prints the
// corresponding rows/series. Environment knobs (so the full suite can run
// fast in CI and at paper scale locally):
//
//   MOCOS_BENCH_SCALE   "full" (default) or "quick"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/core/optimizer.hpp"
#include "src/cost/gradient.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/linalg/norms.hpp"
#include "src/util/csv.hpp"
#include "src/util/table.hpp"

namespace mocos::bench {

inline bool quick_mode() {
  const char* s = std::getenv("MOCOS_BENCH_SCALE");
  return s != nullptr && std::string(s) == "quick";
}

/// Scales an iteration/run count down in quick mode.
inline std::size_t scaled(std::size_t full, std::size_t quick) {
  return quick_mode() ? quick : full;
}

inline core::Problem make_problem(int topology, double alpha, double beta,
                                  double epsilon = 1e-4) {
  core::Weights w;
  w.alpha = alpha;
  w.beta = beta;
  w.epsilon = epsilon;
  return core::Problem(geometry::paper_topology(topology), core::Physics{}, w);
}

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Optional CSV sink for external plotting: when MOCOS_BENCH_CSV_DIR is set,
/// the bench also writes its series to <dir>/<name>.csv.
inline std::optional<util::CsvWriter> maybe_csv(
    const std::string& name, const std::vector<std::string>& header) {
  const char* dir = std::getenv("MOCOS_BENCH_CSV_DIR");
  if (dir == nullptr) return std::nullopt;
  return util::CsvWriter(std::string(dir) + "/" + name + ".csv", header);
}

/// Picks a constant step Δt for the basic (V1) algorithm so that the first
/// iteration moves entries by roughly `movement` — the analogue of the
/// paper tuning Δt = 1e-6 to its own cost scale. Exposure-dominated costs
/// have gradients ~1000x larger than coverage-only costs, so a single fixed
/// Δt cannot serve every figure.
inline double calibrated_step(const cost::CompositeCost& cost,
                              const markov::TransitionMatrix& start,
                              double movement) {
  const auto chain = markov::try_analyze_chain(start).value();
  const double g =
      linalg::frobenius_norm(cost::projected_cost_gradient(cost, chain));
  return g > 0.0 ? movement / g : movement;
}

/// Formats "alpha:beta" the way the paper's tables label rows.
inline std::string ratio_label(double alpha, double beta) {
  auto trim = [](double x) {
    std::string s = util::fmt(x, 7);
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  };
  return trim(alpha) + ":" + trim(beta);
}

}  // namespace mocos::bench
