// Quickstart: optimize a mobile sensor's patrol over a 2x2 grid of points
// of interest, balancing target coverage shares against mean exposure, then
// validate the schedule with a Markov-chain simulation.
//
//   $ ./quickstart

#include <iostream>

#include "src/core/optimizer.hpp"
#include "src/geometry/topology.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace mocos;

  // 1. Describe the world: four PoIs at the centres of unit cells, with PoI
  //    0 twice as important as the others.
  geometry::Topology topology =
      geometry::make_grid("quickstart", 2, 2, {0.4, 0.2, 0.2, 0.2});

  // 2. Physics: unit speed, unit pause at each PoI, sensing radius 0.25.
  core::Physics physics;  // defaults

  // 3. Objectives: equal weight on coverage deviation and exposure, with the
  //    paper's barrier strength.
  core::Weights weights;
  weights.alpha = 1.0;
  weights.beta = 1e-3;

  core::Problem problem(topology, physics, weights);

  // 4. Run the stochastically perturbed steepest descent (the paper's best
  //    variant, V2+V3+V4).
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kPerturbed;
  opts.max_iterations = 800;
  opts.seed = 42;
  const auto outcome = core::CoverageOptimizer(problem, opts).run();

  std::cout << "=== optimized schedule ===\n" << outcome.summary() << '\n';
  std::cout << "transition matrix:\n"
            << outcome.p.to_dense().to_string(3) << "\n\n";

  // 5. Drive a simulated sensor with the optimized matrix and compare the
  //    realized metrics against the analytic predictions.
  sim::SimulationConfig sim_cfg;
  sim_cfg.num_transitions = 100000;
  sim::MarkovCoverageSimulator simulator(problem.model(), sim_cfg);
  util::Rng rng(7);
  const auto sim_res = simulator.run(outcome.p, rng);

  util::Table t({"PoI", "target", "analytic share", "simulated share",
                 "simulated exposure"});
  for (std::size_t i = 0; i < problem.num_pois(); ++i)
    t.add_row({std::to_string(i + 1), util::fmt(problem.targets()[i], 3),
               util::fmt(outcome.metrics.c_share[i], 3),
               util::fmt(sim_res.coverage_share[i], 3),
               util::fmt(sim_res.exposure_steps[i], 2)});
  std::cout << "=== simulation check (" << sim_cfg.num_transitions
            << " transitions) ===\n";
  t.print(std::cout);
  return 0;
}
