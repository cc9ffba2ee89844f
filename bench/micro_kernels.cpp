// google-benchmark micro-kernels for the per-iteration hot path: chain
// analysis (stationary + fundamental + passage times), gradient assembly
// (Eq. 10), projection, line-search step, and a full perturbed iteration.

#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "src/cost/gradient.hpp"
#include "src/descent/initializers.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/markov/fundamental.hpp"

namespace {

using namespace mocos;

markov::TransitionMatrix random_chain(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = 0.05 + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  return markov::TransitionMatrix(std::move(m));
}

void BM_AnalyzeChain(benchmark::State& state) {
  const auto p = random_chain(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::try_analyze_chain(p).value());
  }
}
BENCHMARK(BM_AnalyzeChain)->Arg(4)->Arg(9)->Arg(16)->Arg(25);

void BM_CostValue(benchmark::State& state) {
  const auto problem = bench::make_problem(4, 1.0, 1e-4);
  const auto cost = problem.make_cost();
  const auto chain = markov::try_analyze_chain(random_chain(9, 2)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.value(chain));
  }
}
BENCHMARK(BM_CostValue);

void BM_GradientAssembly(benchmark::State& state) {
  const auto problem = bench::make_problem(4, 1.0, 1e-4);
  const auto cost = problem.make_cost();
  const auto chain = markov::try_analyze_chain(random_chain(9, 3)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost::projected_cost_gradient(cost, chain));
  }
}
BENCHMARK(BM_GradientAssembly);

void BM_LineSearchIteration(benchmark::State& state) {
  const auto problem = bench::make_problem(1, 1.0, 1e-4);
  const auto cost = problem.make_cost();
  descent::DescentConfig cfg;
  cfg.step_policy = descent::StepPolicy::kLineSearch;
  cfg.max_iterations = 1;
  descent::SteepestDescent driver(cost, cfg);
  const auto start = descent::uniform_start(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.run(start));
  }
}
BENCHMARK(BM_LineSearchIteration);

void BM_BasicIterations100(benchmark::State& state) {
  const auto problem = bench::make_problem(1, 1.0, 1e-4);
  const auto cost = problem.make_cost();
  descent::DescentConfig cfg;
  cfg.step_policy = descent::StepPolicy::kConstant;
  cfg.constant_step = 1e-5;
  cfg.max_iterations = 100;
  cfg.keep_trace = false;
  descent::SteepestDescent driver(cost, cfg);
  const auto start = descent::uniform_start(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.run(start));
  }
}
BENCHMARK(BM_BasicIterations100);

}  // namespace

BENCHMARK_MAIN();
