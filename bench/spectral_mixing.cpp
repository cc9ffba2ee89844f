// Spectral diagnostics across the trade-off sweep: how the exposure weight
// beta shapes the chain's mixing. Exposure-dominated optima move constantly
// (fast mixing, small Kemeny constant); coverage-only optima linger at
// high-target PoIs (slow mixing). Also reports how long a simulation must be
// for its measured shares to trust the analytic C-bar (the mixing time).

#include <iostream>

#include "bench/common.hpp"
#include "src/markov/spectral.hpp"

int main() {
  using namespace mocos;
  const std::size_t iters = bench::scaled(1500, 200);

  for (int topo : {1, 3}) {
    bench::banner("Spectral diagnostics vs alpha:beta, " +
                  geometry::paper_topology(topo).name());
    util::Table t({"alpha:beta", "SLEM", "relaxation time", "mixing time",
                   "Kemeny constant"});
    for (const auto& [alpha, beta] :
         std::vector<std::pair<double, double>>{
             {0.0, 1.0}, {1.0, 1.0}, {1.0, 1e-4}, {1.0, 0.0}}) {
      const auto problem = bench::make_problem(topo, alpha, beta);
      core::OptimizerOptions opts;
      opts.max_iterations = iters;
      opts.seed = 13;
      opts.stall_limit = 300;
      opts.keep_trace = false;
      const auto outcome = core::CoverageOptimizer(problem, opts).run();

      const double lambda = markov::slem(outcome.p);
      const auto chain = markov::try_analyze_chain(outcome.p).value();
      t.add_row({bench::ratio_label(alpha, beta), util::fmt(lambda, 4),
                 util::fmt(markov::relaxation_time(outcome.p), 2),
                 std::to_string(markov::mixing_time(outcome.p, 0.05)),
                 util::fmt(markov::kemeny_constant(chain), 2)});
    }
    t.print(std::cout);
  }
  std::cout << "\nexpected: SLEM / relaxation / mixing / Kemeny all grow as "
               "beta -> 0 (the schedule lingers); exposure weight buys fast "
               "mixing\n";
  return 0;
}
