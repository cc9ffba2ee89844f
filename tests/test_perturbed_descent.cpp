#include "src/sensing/travel_model.hpp"
#include "src/descent/perturbed_descent.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/cli/cli.hpp"
#include "src/cost/barrier_term.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/markov/ergodicity.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "tests/helpers.hpp"

namespace mocos::descent {
namespace {

struct Fixture {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  cost::CompositeCost u;

  Fixture(int topo, double alpha, double beta, double eps = 1e-4)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {
    if (alpha != 0.0)
      u.add(std::make_unique<cost::CoverageDeviationTerm>(
          tensors, model.topology().targets(), alpha));
    if (beta != 0.0)
      u.add(std::make_unique<cost::ExposureTerm>(model.num_pois(), beta));
    u.add(std::make_unique<cost::BarrierTerm>(eps));
  }
};

PerturbedConfig quick_config(std::size_t iters = 300) {
  PerturbedConfig cfg;
  cfg.max_iterations = iters;
  cfg.keep_trace = true;
  return cfg;
}

TEST(PerturbedDescent, BestNeverWorseThanStart) {
  Fixture f(1, 1.0, 1.0);
  util::Rng rng(1);
  PerturbedDescent driver(f.u, quick_config());
  const auto start = uniform_start(4);
  const double u0 = safe_cost(f.u, start);
  const auto res = driver.run(start, rng);
  EXPECT_LE(res.best_cost, u0);
  EXPECT_LE(res.best_cost, res.final_cost + 1e-12);
}

TEST(PerturbedDescent, BestMatrixAchievesBestCost) {
  Fixture f(1, 1.0, 1.0);
  util::Rng rng(2);
  PerturbedDescent driver(f.u, quick_config());
  const auto res = driver.run(uniform_start(4), rng);
  EXPECT_NEAR(safe_cost(f.u, res.best_p), res.best_cost, 1e-10);
}

TEST(PerturbedDescent, ResultStaysErgodic) {
  Fixture f(3, 1.0, 0.0001);
  util::Rng rng(3);
  PerturbedDescent driver(f.u, quick_config());
  const auto res = driver.run(uniform_start(4), rng);
  EXPECT_TRUE(markov::is_ergodic(res.best_p));
  EXPECT_GT(res.best_p.min_entry(), 0.0);
}

TEST(PerturbedDescent, DifferentSeedsSimilarBestCost) {
  // The headline claim: the perturbed algorithm converges to (nearly) the
  // same optimum from different random starts.
  Fixture f(1, 0.0, 1.0);
  PerturbedConfig cfg = quick_config(3000);
  cfg.keep_trace = false;
  PerturbedDescent driver(f.u, cfg);
  std::vector<double> bests;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    const auto start = random_start(4, rng);
    bests.push_back(driver.run(start, rng).best_cost);
  }
  const double spread = *std::max_element(bests.begin(), bests.end()) -
                        *std::min_element(bests.begin(), bests.end());
  const double scale = *std::min_element(bests.begin(), bests.end());
  EXPECT_LT(spread, 0.05 * scale) << "best costs spread too widely";
}

TEST(PerturbedDescent, NoNoiseReducesToAdaptiveBehaviour) {
  Fixture f(2, 1.0, 0.0);
  PerturbedConfig cfg = quick_config(100);
  cfg.noise_sigma = 0.0;
  util::Rng rng(4);
  PerturbedDescent driver(f.u, cfg);
  const auto res = driver.run(uniform_start(4), rng);
  const double u0 = safe_cost(f.u, uniform_start(4));
  EXPECT_LT(res.best_cost, u0);
}

TEST(PerturbedDescent, StallLimitStopsEarly) {
  Fixture f(1, 1.0, 0.0);
  PerturbedConfig cfg = quick_config(20000);
  cfg.keep_trace = false;
  cfg.stall_limit = 50;
  cfg.stall_relative_improvement = 1e-4;  // <0.01% gain counts as stalling
  util::Rng rng(5);
  PerturbedDescent driver(f.u, cfg);
  const auto res = driver.run(uniform_start(4), rng);
  EXPECT_LT(res.iterations, 20000u);
}

TEST(PerturbedDescent, TraceRecordsAcceptedMoves) {
  Fixture f(1, 1.0, 1.0);
  util::Rng rng(6);
  PerturbedDescent driver(f.u, quick_config(50));
  const auto res = driver.run(uniform_start(4), rng);
  EXPECT_FALSE(res.trace.empty());
}

TEST(PerturbedDescent, RejectsBadConfig) {
  Fixture f(1, 1.0, 1.0);
  PerturbedConfig bad;
  bad.noise_sigma = -1.0;
  EXPECT_THROW(PerturbedDescent(f.u, bad), std::invalid_argument);
  PerturbedConfig bad2;
  bad2.annealing_k = 0.0;
  EXPECT_THROW(PerturbedDescent(f.u, bad2), std::invalid_argument);
  PerturbedConfig bad3;
  bad3.max_iterations = 0;
  EXPECT_THROW(PerturbedDescent(f.u, bad3), std::invalid_argument);
}

TEST(PerturbedDescent, ProfilerSeesEveryIterationsGradient) {
  // Every iteration that assembles a gradient — the stochastic phase's and
  // the quench polish's — does so inside a gradient_assembly phase under the
  // descent.perturbed_run root and is counted in descent.iterations, so on a
  // clean run the two agree, on a dense chain and on a support-restricted
  // city map alike. That includes pinned passes, whose direction points out
  // of the simplex so no step is feasible.
  auto check = [](const cost::CompositeCost& u,
                  const markov::TransitionMatrix& start) {
    PerturbedConfig cfg = quick_config(40);
    cfg.polish_iterations = 15;
    PerturbedDescent driver(u, cfg);
    util::Rng rng(4);
    obs::MetricsRegistry registry;
    obs::PhaseTimer profiler;
    PerturbedResult res = [&] {
      obs::ScopedMetrics metrics(&registry);
      obs::ScopedProfileInstall profile(&profiler);
      return driver.run(start, rng);
    }();
    ASSERT_TRUE(res.recovery.empty());

    std::uint64_t iterations = 0;
    for (const auto& c : registry.snapshot().counters)
      if (c.name == "descent.iterations") iterations = c.value;
    std::uint64_t gradients = 0;
    for (const auto& [stack, stats] : profiler.stats()) {
      if (stack.substr(stack.rfind(';') + 1) != "gradient_assembly") continue;
      EXPECT_EQ(stack.rfind("descent.perturbed_run;", 0), 0u) << stack;
      gradients += stats.count;
    }
    EXPECT_GT(iterations, 40u);  // the stochastic phase plus the quench
    EXPECT_EQ(gradients, iterations);
  };
  {
    SCOPED_TRACE("paper topology 2");
    Fixture f(2, 1.0, 0.0001);
    check(f.u, uniform_start(4));
  }
  {
    SCOPED_TRACE("city:36:3 with support_radius 1.6");
    const core::Problem problem = cli::build_problem(util::Config::parse_string(
        "topology = city:36:3\nsupport_radius = 1.6\n"));
    check(problem.make_cost(), support_uniform_start(problem.pattern()));
  }
}

}  // namespace
}  // namespace mocos::descent
