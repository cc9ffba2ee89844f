// Energy-budgeted patrol (§VII "Energy cost"): a battery-powered drone must
// keep its average travel distance per decision under a budget while still
// honouring coverage targets and exposure limits.
//
// Uses the (D - target)^2 form of the energy objective to pin movement to a
// prescribed level and shows the achieved metrics across budgets.

#include <iostream>

#include "src/core/optimizer.hpp"
#include "src/geometry/topology.hpp"
#include "src/util/table.hpp"

namespace {

using namespace mocos;

double expected_distance(const core::Problem& problem,
                         const markov::TransitionMatrix& p) {
  const auto chain = markov::try_analyze_chain(p).value();
  double d = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t j = 0; j < p.size(); ++j)
      d += chain.pi[i] * chain.p(i, j) * problem.tensors().distances()(i, j);
  return d;
}

}  // namespace

int main() {
  // Six survey sites along a coastline (a 1x6 strip).
  geometry::Topology coast = geometry::make_grid(
      "coastline", 1, 6, {0.25, 0.15, 0.1, 0.1, 0.15, 0.25});
  core::Physics physics;
  physics.speed = 2.0;  // fast flight, travel still costs energy

  std::cout << "Energy-budgeted coastline patrol (6 sites)\n";
  util::Table t({"movement target D*", "achieved D", "DeltaC", "E-bar"});

  for (double budget : {0.0, 0.4, 0.8, 1.6}) {
    core::Weights weights;
    weights.alpha = 1.0;
    weights.beta = 1e-4;
    weights.energy_gamma = 25.0;
    weights.energy_target = budget;
    core::Problem problem(coast, physics, weights);

    core::OptimizerOptions opts;
    opts.max_iterations = 700;
    opts.seed = 23;
    opts.stall_limit = 250;
    opts.keep_trace = false;
    const auto outcome = core::CoverageOptimizer(problem, opts).run();

    t.add_row({util::fmt(budget, 2),
               util::fmt(expected_distance(problem, outcome.p), 3),
               util::fmt(outcome.metrics.delta_c, 6),
               util::fmt(outcome.metrics.e_bar, 2)});
  }
  t.print(std::cout);
  std::cout << "\nthe optimizer pins average movement near each prescribed "
               "budget; tighter budgets trade exposure (stale sites) for "
               "energy.\n";
  return 0;
}
