// Ablation benches for the design choices DESIGN.md calls out:
//   1. §VII energy objective: growing gamma reduces expected movement D.
//   2. §VII entropy objective: growing entropy weight raises the schedule's
//      entropy rate (unpredictability) at bounded cost to DeltaC.
//   3. V4 noise sigma: how the perturbation magnitude affects the best cost
//      found (too little noise -> stuck; too much -> random walk).
//   4. Barrier epsilon: solution quality as the gates widen.

#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "src/cost/metrics.hpp"
#include "src/descent/initializers.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/markov/entropy.hpp"
#include "src/sim/event_capture.hpp"

namespace {

using namespace mocos;

core::OptimizationOutcome optimize(const core::Problem& problem,
                                   std::size_t iters, std::uint64_t seed = 5) {
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kPerturbed;
  opts.max_iterations = iters;
  opts.seed = seed;
  opts.stall_limit = 250;
  opts.keep_trace = false;
  return core::CoverageOptimizer(problem, opts).run();
}

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
  const std::size_t iters = bench::scaled(900, 150);

  {
    bench::banner("Ablation 1: energy weight gamma vs expected movement D "
                  "(Topology 1, alpha=1, beta=1e-4)");
    util::Table t({"gamma", "expected distance D", "DeltaC", "E-bar"});
    for (double gamma : {0.0, 0.1, 1.0, 10.0, 100.0}) {
      core::Weights w;
      w.alpha = 1.0;
      w.beta = 1e-4;
      w.energy_gamma = gamma;
      const core::Problem problem(geometry::paper_topology(1), core::Physics{},
                                  w);
      const auto res = optimize(problem, iters);
      t.add_row({util::fmt(gamma, 1), util::fmt(expected_distance(problem,
                                                                  res.p), 4),
                 util::fmt(res.metrics.delta_c, 6),
                 util::fmt(res.metrics.e_bar, 3)});
    }
    t.print(std::cout);
    std::cout << "expected: D decreases as gamma grows\n";
  }

  {
    bench::banner("Ablation 2: entropy weight vs entropy rate "
                  "(Topology 2, alpha=1, beta=0)");
    util::Table t({"entropy w", "H (nats)", "H / ln(M)", "DeltaC"});
    for (double ew : {0.0, 0.01, 0.05, 0.2, 1.0}) {
      core::Weights w;
      w.alpha = 1.0;
      w.beta = 0.0;
      w.entropy_weight = ew;
      const core::Problem problem(geometry::paper_topology(2), core::Physics{},
                                  w);
      const auto res = optimize(problem, iters);
      const double h = markov::entropy_rate(res.p);
      t.add_row({util::fmt(ew, 2), util::fmt(h, 4),
                 util::fmt(h / markov::max_entropy_rate(4), 4),
                 util::fmt(res.metrics.delta_c, 6)});
    }
    t.print(std::cout);
    std::cout << "expected: H rises toward ln(4)=" << util::fmt(std::log(4.0), 3)
              << " as the entropy weight grows\n";
  }

  {
    bench::banner("Ablation 3: V4 noise sigma vs best cost "
                  "(Topology 1, alpha=0, beta=1; 8 seeds each)");
    util::Table t({"sigma", "mean best U_eps", "max best U_eps"});
    for (double sigma : {0.0, 0.01, 0.1, 0.5, 2.0}) {
      double sum = 0.0, worst = 0.0;
      const std::size_t seeds = bench::scaled(8, 3);
      for (std::size_t s = 1; s <= seeds; ++s) {
        const auto problem = bench::make_problem(1, 0.0, 1.0);
        core::OptimizerOptions opts;
        opts.algorithm = core::Algorithm::kPerturbed;
        opts.random_start = true;
        opts.seed = 100 + s;
        opts.noise_sigma = sigma;
        opts.max_iterations = iters;
        opts.stall_limit = 200;
        opts.keep_trace = false;
        const double c =
            core::CoverageOptimizer(problem, opts).run().penalized_cost;
        sum += c;
        worst = std::max(worst, c);
      }
      t.add_row({util::fmt(sigma, 2),
                 util::fmt(sum / static_cast<double>(bench::scaled(8, 3)), 6),
                 util::fmt(worst, 6)});
    }
    t.print(std::cout);
    std::cout << "expected: moderate noise gives the most reliable optimum\n";
  }

  {
    bench::banner("Ablation 4: barrier epsilon vs solution quality "
                  "(Topology 3, alpha=1, beta=1e-4)");
    util::Table t({"epsilon", "U (Eq.14)", "min p_ij"});
    for (double eps : {1e-2, 1e-3, 1e-4, 1e-5}) {
      const auto problem = bench::make_problem(3, 1.0, 1e-4, eps);
      const auto res = optimize(problem, iters);
      t.add_row({util::fmt(eps, 5), util::fmt(res.report_cost, 6),
                 util::fmt(res.p.min_entry(), 6)});
    }
    t.print(std::cout);
    std::cout << "expected: smaller epsilon lets entries approach the simplex "
                 "boundary (smaller min p_ij), improving Eq.-14 cost\n";
  }

  {
    bench::banner("Ablation 5: steepest descent vs Polak-Ribiere+ CG "
                  "(deterministic, line search, Topology 2, alpha=1, beta=0)");
    util::Table t({"iteration budget", "SD final U_eps", "CG final U_eps"});
    for (std::size_t budget : {20u, 60u, 150u, 400u}) {
      const auto problem = bench::make_problem(2, 1.0, 0.0);
      const auto cost = problem.make_cost();
      descent::DescentConfig sd;
      sd.step_policy = descent::StepPolicy::kLineSearch;
      sd.max_iterations = budget;
      sd.keep_trace = false;
      descent::DescentConfig cg = sd;
      cg.direction_policy = descent::DirectionPolicy::kConjugateGradient;
      const auto res_sd =
          descent::SteepestDescent(cost, sd).run(descent::uniform_start(4));
      const auto res_cg =
          descent::SteepestDescent(cost, cg).run(descent::uniform_start(4));
      t.add_row({std::to_string(budget), util::fmt(res_sd.cost, 8),
                 util::fmt(res_cg.cost, 8)});
    }
    t.print(std::cout);
    std::cout << "expected: CG descends at least as fast (fewer zig-zags in "
                 "the valley)\n";
  }

  {
    bench::banner("Ablation 6: information-capture objective "
                  "(Topology 1, event rates skewed to PoI 1)");
    const std::vector<double> rates{8.0, 1.0, 1.0, 1.0};
    util::Table t({"info gamma", "analytic capture J", "simulated capture J",
                   "share of PoI 1"});
    for (double gamma : {0.0, 0.05, 0.2, 1.0}) {
      core::Weights w;
      w.alpha = 0.0;
      w.beta = 1e-3;  // keep some movement pressure
      if (gamma > 0.0) {
        w.event_rates = rates;
        w.information_gamma = gamma;
      }
      const core::Problem problem(geometry::paper_topology(1),
                                  core::Physics{}, w);
      const auto res = optimize(problem, iters);
      double j_analytic = 0.0;
      for (std::size_t i = 0; i < 4; ++i)
        j_analytic += rates[i] * res.metrics.c_share[i];
      sim::EventCaptureConfig cfg;
      cfg.num_transitions = bench::scaled(40000, 5000);
      util::Rng rng(7);
      const auto cap =
          sim::EventCaptureSimulator(cfg).run(problem.model(), res.p, rates,
                                              rng);
      t.add_row({util::fmt(gamma, 2), util::fmt(j_analytic, 4),
                 util::fmt(cap.capture_rate(rates), 4),
                 util::fmt(res.metrics.c_share[0], 3)});
    }
    t.print(std::cout);
    std::cout << "expected: capture rate J grows with gamma as the schedule "
                 "shifts toward the high-rate PoI; simulated J tracks "
                 "analytic J\n";
  }
  return 0;
}
