// The support contract of a support-restricted problem (DESIGN.md §12.5):
// every algorithm keeps P on the support, the perturbed driver actually
// moves there, and nothing prices a P that leaves the support.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/cli/cli.hpp"
#include "src/core/optimizer.hpp"
#include "src/core/serialization.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/config.hpp"
#include "tests/temporary_file.hpp"

namespace mocos::cli {
namespace {

constexpr const char* kCity =
    "topology = city:36:3\nradius = 0.1\nsupport_radius = 1.6\n";

bool on_support(const core::Problem& problem, std::size_t i, std::size_t j) {
  for (const std::size_t k : problem.support()[i])
    if (k == j) return true;
  return false;
}

std::uint64_t counter(const obs::MetricsRegistry& registry,
                      const std::string& name) {
  for (const auto& c : registry.snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

TEST(SupportContract, EveryAlgorithmStaysOnTheSupportAndMoves) {
  // Before the perturbed noise was drawn on P's pattern, every perturbed
  // pass on this map was pinned: the noise pointed below zero on the
  // structural zeros, so no step was feasible.
  constexpr std::size_t kIterations = 40;
  for (const char* algorithm : {"basic", "adaptive", "perturbed"}) {
    for (const bool random_start : {false, true}) {
      SCOPED_TRACE(std::string(algorithm) +
                   (random_start ? " random_start" : " uniform start"));
      const util::Config config = util::Config::parse_string(
          std::string(kCity) + "algorithm = " + algorithm +
          "\nstep = 1e-4\niterations = " + std::to_string(kIterations) +
          "\nrandom_start = " + (random_start ? "true" : "false") + "\n");
      const core::Problem problem = build_problem(config);
      obs::MetricsRegistry registry;
      const core::OptimizationOutcome outcome = [&] {
        obs::ScopedMetrics metrics(&registry);
        return run_optimization(config, problem, runtime::ExecutionContext());
      }();
      const std::size_t n = problem.num_pois();
      std::size_t off_support_mass = 0;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          // mocos-lint: allow(float-eq) — structural zeros are exact
          if (!on_support(problem, i, j) && outcome.p(i, j) != 0.0)
            ++off_support_mass;
      EXPECT_EQ(off_support_mass, 0u);
      EXPECT_LT(counter(registry, "descent.steps.pinned"), kIterations);
      EXPECT_GT(outcome.iterations, 0u);
    }
  }
  // Multi-start draws dense random starts and stays refused on a support.
  const test::TemporaryFile conf(
      "support_multistart.conf",
      std::string(kCity) + "algorithm = perturbed\nstarts = 2\n"
                           "iterations = 5\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig) << err.str();
}

TEST(SupportContract, LoadedScheduleOffTheSupportIsBadConfig) {
  // The audit used to price it silently: most of its mass sits on
  // transitions no coverage entry lists, so the printed coverage shares
  // summed to about 0.04.
  const test::TemporaryFile schedule("support_uniform_schedule.txt",
                                     core::serialize_schedule(
                                         markov::TransitionMatrix::uniform(
                                             36)));
  const test::TemporaryFile conf(
      "support_audit.conf",
      std::string(kCity) + "load_schedule = " + schedule.path() + "\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({conf.path()}, out, err), kExitBadConfig) << out.str();
  EXPECT_NE(err.str().find("support_radius"), std::string::npos)
      << err.str();
}

TEST(SupportContract, MetricsAndExplicitStartsRefuseOffSupportMass) {
  const core::Problem problem =
      build_problem(util::Config::parse_string(kCity));
  const markov::TransitionMatrix dense =
      markov::TransitionMatrix::uniform(problem.num_pois());
  EXPECT_FALSE(problem.on_support(dense));
  EXPECT_THROW((void)problem.metrics_of(dense), std::invalid_argument);
  core::OptimizerOptions options;
  options.algorithm = core::Algorithm::kAdaptive;
  options.max_iterations = 2;
  const core::CoverageOptimizer optimizer(problem, options);
  EXPECT_THROW((void)optimizer.run(dense), std::invalid_argument);
  // The support-uniform start the optimizer picks itself is accepted.
  const core::OptimizationOutcome outcome = optimizer.run();
  EXPECT_TRUE(problem.on_support(outcome.p));
  EXPECT_NO_THROW((void)problem.metrics_of(outcome.p));
}

}  // namespace
}  // namespace mocos::cli
