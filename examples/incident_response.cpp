// Incident response planning with hitting analytics: a security robot
// patrols a 2x2 facility (gate, lobby, server room, vault). Beyond the
// paper's mean-exposure metric, response planners need:
//
//   - "if an alarm fires at the vault while the robot is at the gate, how
//      long until it arrives — on average AND in the tail?"
//   - "starting a sweep at the lobby, will the robot check the gate before
//      the vault?"
//   - "how many times does it pass the lobby per vault visit?"
//
// All computable in closed form from the optimized chain (src/markov/
// hitting.hpp), no simulation needed.

#include <cmath>
#include <iostream>

#include "src/core/optimizer.hpp"
#include "src/geometry/topology.hpp"
#include "src/markov/hitting.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace mocos;
  const char* names[] = {"gate", "lobby", "server room", "vault"};

  geometry::Topology facility =
      geometry::make_grid("facility", 2, 2, {0.2, 0.1, 0.3, 0.4});
  core::Weights weights;
  weights.alpha = 1.0;
  weights.beta = 1e-3;
  core::Problem problem(facility, core::Physics{}, weights);

  core::OptimizerOptions opts;
  opts.max_iterations = 800;
  opts.stall_limit = 300;
  opts.keep_trace = false;
  opts.seed = 31;
  const auto outcome = core::CoverageOptimizer(problem, opts).run();
  const auto chain = markov::try_analyze_chain(outcome.p).value();

  std::cout << "Facility patrol: response-time analytics "
               "(targets: gate .2, lobby .1, server .3, vault .4)\n\n";

  // Response times to the vault (PoI 3): mean and standard deviation of the
  // first-passage time from every post.
  const auto var = markov::passage_time_variance(outcome.p, 3);
  util::Table response({"alarm at vault, robot at", "mean transitions",
                        "std dev", "mean + 2 sigma"});
  for (std::size_t i = 0; i < 3; ++i) {
    const double mean = chain.r(i, 3);
    const double sd = std::sqrt(var[i]);
    response.add_row({names[i], util::fmt(mean, 2), util::fmt(sd, 2),
                      util::fmt(mean + 2.0 * sd, 2)});
  }
  response.print(std::cout);

  // Sweep-order probabilities: from each start, gate before vault?
  const auto gate_first = markov::hit_before(outcome.p, 0, 3);
  std::cout << "\nP(check gate before vault):\n";
  util::Table order({"starting at", "P(gate first)"});
  for (std::size_t i = 1; i < 3; ++i)
    order.add_row({names[i], util::fmt(gate_first[i], 3)});
  order.print(std::cout);

  // Visit counts: lobby passes per vault visit.
  const auto visits = markov::expected_visits_before(outcome.p, 1, 3);
  std::cout << "\nexpected lobby visits before reaching the vault, from the "
               "gate: "
            << util::fmt(visits[0], 2) << "\n\n";

  std::cout << "patrol shares achieved: ";
  for (std::size_t i = 0; i < 4; ++i)
    std::cout << names[i] << " " << util::fmt(outcome.metrics.c_share[i], 3)
              << (i + 1 < 4 ? ", " : "\n");
  return 0;
}
