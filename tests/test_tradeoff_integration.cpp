// The paper's headline physical claims (§VI-B): reducing the exposure weight
// β lets the coverage profile approach the target (ΔC decreases) while the
// mean exposure Ē grows — and the chain moves less (energy trend, §VII).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/optimizer.hpp"
#include "src/markov/entropy.hpp"
#include "tests/helpers.hpp"

namespace mocos::core {
namespace {

OptimizationOutcome optimize(int topology, double alpha, double beta,
                             std::size_t iters = 800,
                             std::uint64_t seed = 5) {
  const Problem problem = test::paper_problem(topology, alpha, beta);
  OptimizerOptions opts;
  opts.algorithm = Algorithm::kPerturbed;
  opts.max_iterations = iters;
  opts.seed = seed;
  opts.stall_limit = 200;
  opts.keep_trace = false;
  return CoverageOptimizer(problem, opts).run();
}

// Tables I/II on Topology 3 at α = 1, β swept toward 0. β = 0 stays out of
// the sweep: the pure-ΔC run converges more slowly (EXPERIMENTS.md), and on
// this budget it ends with a larger ΔC than β = 1e-6 does (0.0088 against
// 0.0087). The two tests below check the two halves of the trade-off on
// the same four runs.
const std::vector<double> kSweepBetas = {1.0, 1e-2, 1e-4, 1e-6};

const std::vector<OptimizationOutcome>& beta_sweep() {
  static const std::vector<OptimizationOutcome> runs = [] {
    std::vector<OptimizationOutcome> out;
    for (double beta : kSweepBetas) out.push_back(optimize(3, 1.0, beta));
    return out;
  }();
  return runs;
}

TEST(Tradeoff, LowerBetaReducesDeltaC) {
  const auto& runs = beta_sweep();
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE(testing::Message()
                 << "beta " << kSweepBetas[k - 1] << " -> " << kSweepBetas[k]);
    EXPECT_LT(runs[k].metrics.delta_c, runs[k - 1].metrics.delta_c);
  }
}

TEST(Tradeoff, LowerBetaIncreasesExposure) {
  const auto& runs = beta_sweep();
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE(testing::Message()
                 << "beta " << kSweepBetas[k - 1] << " -> " << kSweepBetas[k]);
    EXPECT_GT(runs[k].metrics.e_bar, runs[k - 1].metrics.e_bar);
  }
}

TEST(Tradeoff, AlphaOnlyDrivesSharesTowardTargets) {
  // α=1, β≈0 on Topology 3: shares should approach (.4,.1,.1,.4) in shape:
  // edge PoIs get clearly more coverage than middle PoIs.
  const auto res = optimize(3, 1.0, 0.0, 1200);
  const auto& c = res.metrics.c_share;
  EXPECT_GT(c[0], c[1]);
  EXPECT_GT(c[3], c[2]);
  // Relative shape: normalized shares close to the targets' shape.
  const double total = c[0] + c[1] + c[2] + c[3];
  EXPECT_NEAR(c[0] / total, 0.4, 0.08);
  EXPECT_NEAR(c[1] / total, 0.1, 0.08);
}

TEST(Tradeoff, BetaOnlySolutionIgnoresTargets) {
  // α=0: nothing pulls the shares toward Φ; the optimizer minimizes
  // exposure instead, so the uniform-ish solution has roughly equal
  // exposure across PoIs of the symmetric Topology 1.
  const auto res = optimize(1, 0.0, 1.0);
  const auto& e = res.metrics.exposure;
  const double emax = *std::max_element(e.begin(), e.end());
  const double emin = *std::min_element(e.begin(), e.end());
  EXPECT_LT(emax - emin, 0.35 * emax);
}

TEST(Tradeoff, EnergyTermReducesMovement) {
  // Adding the §VII energy objective should reduce expected travel distance.
  const Problem base = test::paper_problem(1, 1.0, 1e-4);
  Weights w_energy;
  w_energy.alpha = 1.0;
  w_energy.beta = 1e-4;
  w_energy.energy_gamma = 10.0;
  const Problem with_energy(geometry::paper_topology(1), Physics{}, w_energy);

  OptimizerOptions opts;
  opts.max_iterations = 600;
  opts.stall_limit = 200;
  opts.keep_trace = false;
  const auto res_base = CoverageOptimizer(base, opts).run();
  const auto res_energy = CoverageOptimizer(with_energy, opts).run();

  auto expected_distance = [](const Problem& pr,
                              const markov::TransitionMatrix& p) {
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    double d = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
      for (std::size_t j = 0; j < p.size(); ++j)
        d += chain.pi[i] * chain.p(i, j) * pr.tensors().distances()(i, j);
    return d;
  };
  EXPECT_LT(expected_distance(with_energy, res_energy.p),
            expected_distance(base, res_base.p));
}

TEST(Tradeoff, EntropyTermRaisesEntropy) {
  Weights w_plain;
  w_plain.alpha = 1.0;
  w_plain.beta = 0.0;
  const Problem plain(geometry::paper_topology(2), Physics{}, w_plain);

  Weights w_entropy = w_plain;
  w_entropy.entropy_weight = 0.05;
  const Problem with_h(geometry::paper_topology(2), Physics{}, w_entropy);

  OptimizerOptions opts;
  opts.max_iterations = 600;
  opts.stall_limit = 200;
  opts.keep_trace = false;
  const auto res_plain = CoverageOptimizer(plain, opts).run();
  const auto res_h = CoverageOptimizer(with_h, opts).run();

  EXPECT_GT(markov::entropy_rate(res_h.p), markov::entropy_rate(res_plain.p));
}

}  // namespace
}  // namespace mocos::core
