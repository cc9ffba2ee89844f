// Property-based invariant harness for the Markov solver layer.
//
// A seeded generator (Rng::stream, so chain k is reproducible in isolation)
// produces hundreds of random ergodic chains of varying size; every chain
// must satisfy the paper's Eqs. 5–8 identities, the descent's resolvent
// solve must agree with the Kemeny–Snell pipeline (dense π, then
// Z = (I − P + W)⁻¹, then R) to 1e-10, and the closed-form exposure must
// equal Eq. 3 evaluated through R. The descent evaluator's one-entry memo
// answers exact repeats only, and a refill of one analysis in place equals
// a fresh analysis bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "gtest/gtest.h"
#include "src/core/optimizer.hpp"
#include "src/cost/barrier_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/descent/cached_cost.hpp"
#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/resolvent.hpp"
#include "src/util/rng.hpp"
#include "tests/exposure_reference.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

constexpr std::size_t kNumChains = 240;  // >= 200 per the harness contract
constexpr double kAgreementTol = 1e-10;

/// Chain k of the harness: size in [2, 10], strictly positive entries.
/// Derived via Rng::stream so any failing index reproduces standalone.
markov::TransitionMatrix generated_chain(std::uint64_t k) {
  const util::Rng root(20260806);
  util::Rng rng = root.stream(k);
  const std::size_t n = 2 + rng.index(9);
  return test::random_positive_chain(n, rng, /*floor=*/0.01);
}

double max_abs_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

double max_abs_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Meyer's axioms for a group inverse G of A, to tolerance `tol`:
/// A·G·A = A, G·A·G = G and A·G = G·A.
bool satisfies_group_inverse_axioms(const linalg::Matrix& a,
                                    const linalg::Matrix& g, double tol) {
  const linalg::Matrix ag = a * g;
  const linalg::Matrix ga = g * a;
  return linalg::approx_equal(ag * a, a, tol) &&
         linalg::approx_equal(ga * g, g, tol) &&
         linalg::approx_equal(ag, ga, tol);
}

/// Worst entry difference between two analyses of the same chain.
double analysis_diff(const markov::ChainAnalysis& a,
                     const markov::ChainAnalysis& b) {
  double worst = max_abs_diff(a.pi, b.pi);
  worst = std::max(worst, max_abs_diff(a.z, b.z));
  worst = std::max(worst, max_abs_diff(a.r, b.r));
  return worst;
}

TEST(ChainProperties, GeneratedChainsSatisfyPaperIdentities) {
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    const markov::TransitionMatrix p = generated_chain(k);
    const std::size_t n = p.size();
    const auto chain = markov::try_analyze_chain(p);
    ASSERT_TRUE(chain.ok()) << chain.status().to_string();

    // Σπ_i = 1 and π strictly positive.
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GT(chain->pi[i], 0.0);
      mass += chain->pi[i];
    }
    EXPECT_NEAR(mass, 1.0, 1e-12);

    // πP = π (stationarity, Eq. 5).
    const linalg::Vector pi_p = linalg::mul(chain->pi, p.to_dense());
    EXPECT_LE(max_abs_diff(pi_p, chain->pi), 1e-10);

    // R_ii = 1/π_i (mean return times, Eq. 8).
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(chain->r(i, i) * chain->pi[i], 1.0, 1e-9);

    // ZA = AZ with A = I − P: Z commutes with the generator it inverts.
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        a(i, j) = (i == j ? 1.0 : 0.0) - p(i, j);
    EXPECT_LE(max_abs_diff(chain->z * a, a * chain->z), 1e-9);
  }
}

TEST(ChainProperties, CachedResolventMatchesFullAnalysis) {
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    const markov::TransitionMatrix p = generated_chain(k);
    const auto solved = markov::try_resolvent_analysis(p);
    ASSERT_TRUE(solved.ok()) << solved.status().to_string();
    EXPECT_FALSE(solved->sparse);
    EXPECT_LE(analysis_diff(solved->chain, test::kemeny_snell_analysis(p)),
              kAgreementTol);

    // The group inverse A# = Z − W satisfies Meyer's axioms for A = I − P,
    // and the paper's Eq. 5, W = I − A·A#, and Eq. 7, Z = I + P·A#.
    const std::size_t n = p.size();
    const linalg::Matrix identity = linalg::Matrix::identity(n);
    const linalg::Matrix a = identity - p.to_dense();
    const linalg::Matrix w = markov::stationary_rows(solved->chain.pi);
    const linalg::Matrix a_sharp = solved->chain.z - w;
    EXPECT_TRUE(satisfies_group_inverse_axioms(a, a_sharp, 1e-8));
    EXPECT_LE(max_abs_diff(identity - a * a_sharp, w), kAgreementTol);
    EXPECT_LE(max_abs_diff(identity + p.to_dense() * a_sharp, solved->chain.z),
              kAgreementTol);
  }
}

TEST(ChainProperties, ClosedFormExposureMatchesEq3) {
  // Kac's return-time identity Σ_{j≠i} p_ij R_ji = 1/π_i − 1 turns Eq. 3
  // into Ē_i = (1 − π_i)/(π_i (1 − p_ii)); the closed form read off a π-only
  // analysis must equal Eq. 3 read off the full one.
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    const markov::TransitionMatrix p = generated_chain(k);
    const auto full = test::unwrap(markov::try_analyze_chain(p));
    const auto pi_only = test::unwrap(markov::try_analyze_chain(
        p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary));
    EXPECT_EQ(pi_only.level(), markov::AnalysisLevel::kStationary);
    const linalg::Vector closed =
        cost::ExposureTerm::compute_mean_exposures(pi_only);
    const linalg::Vector eq3 = test::eq3_mean_exposures(full);
    for (std::size_t i = 0; i < p.size(); ++i)
      EXPECT_NEAR(closed[i], eq3[i], kAgreementTol * std::abs(eq3[i]));
  }
}

TEST(ChainProperties, InPlaceRefillMatchesFreshAnalysisBitForBit) {
  // One ResolventAnalysis refilled across the seeded chains, whose size
  // varies from 2 to 10, with a failed refill of a reducible chain every 40
  // chains: each refill must equal a fresh analysis of the same chain bit
  // for bit, in π, in P's values and in Z·v through the kept factors.
  const markov::TransitionMatrix reducible(linalg::Matrix{
      {0.5, 0.5, 0.0, 0.0},
      {0.5, 0.5, 0.0, 0.0},
      {0.0, 0.0, 0.5, 0.5},
      {0.0, 0.0, 0.5, 0.5}});
  constexpr auto kLevel = markov::AnalysisLevel::kStationary;
  markov::ResolventAnalysis slot{
      markov::ChainAnalysis{generated_chain(0), {}, {}, {}}, false,
      std::nullopt};
  std::size_t size_changes = 0;
  std::size_t last_size = 0;
  for (std::uint64_t k = 0; k < kNumChains; ++k) {
    SCOPED_TRACE("chain " + std::to_string(k));
    if (k % 40 == 20) {
      const util::Status failed = markov::try_resolvent_analysis_into(
          reducible, markov::SolvePolicy::kAuto, kLevel, slot);
      EXPECT_TRUE(util::is_numerical_failure(failed.code()));
    }
    const markov::TransitionMatrix p = generated_chain(k);
    const std::size_t n = p.size();
    size_changes += n != last_size ? 1 : 0;
    last_size = n;
    const util::Status refilled = markov::try_resolvent_analysis_into(
        p, markov::SolvePolicy::kAuto, kLevel, slot);
    ASSERT_TRUE(refilled.is_ok()) << refilled.to_string();
    const markov::ResolventAnalysis fresh = test::unwrap(
        markov::try_resolvent_analysis(p, markov::SolvePolicy::kAuto, kLevel));

    EXPECT_EQ(slot.chain.pi, fresh.chain.pi);
    EXPECT_EQ(slot.chain.p.csr().values(), fresh.chain.p.csr().values());
    EXPECT_EQ(slot.sparse, fresh.sparse);
    ASSERT_TRUE(slot.resolvent.has_value());
    ASSERT_TRUE(fresh.resolvent.has_value());
    linalg::Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = std::sin(static_cast<double>(k + 3 * i));
    EXPECT_EQ(test::unwrap(slot.resolvent->try_fundamental_apply(
                  slot.chain.pi, v)),
              test::unwrap(fresh.resolvent->try_fundamental_apply(
                  fresh.chain.pi, v)));
  }
  EXPECT_GT(size_changes, 1u);
}

TEST(ChainProperties, MemoAnswersOnlyExactRepeats) {
  cost::CompositeCost u;
  u.add(std::make_unique<cost::BarrierTerm>(1e-4));
  descent::CachedCostEvaluator evaluator(u);
  const markov::TransitionMatrix start = test::chain3();

  // The first probe solves; re-probing the identical matrix, by cost or by
  // analysis, is a memo hit.
  const double u0 = evaluator.cost_at(start);
  ASSERT_TRUE(std::isfinite(u0));
  EXPECT_EQ(evaluator.stats().full_solves, 1u);
  EXPECT_EQ(evaluator.cost_at(start), u0);
  const auto hit = evaluator.analyze(start);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(evaluator.stats().full_solves, 1u);
  EXPECT_EQ(evaluator.stats().exact_hits, 2u);
  EXPECT_LE(
      analysis_diff(**hit, test::unwrap(markov::try_analyze_chain(start))),
      kAgreementTol);

  // A one-row change is a fresh solve, not an update of the memo.
  linalg::Matrix m = start.to_dense();
  m(1, 0) = 0.2;
  m(1, 1) = 0.5;
  m(1, 2) = 0.3;
  const markov::TransitionMatrix one_row(m);
  const auto changed = evaluator.analyze(one_row);
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(evaluator.stats().full_solves, 2u);
  EXPECT_EQ(evaluator.stats().exact_hits, 2u);
  EXPECT_LE(analysis_diff(**changed,
                          test::unwrap(markov::try_analyze_chain(one_row))),
            kAgreementTol);

  // A failed solve empties the memo: the next probe of the previous matrix
  // solves again.
  const markov::TransitionMatrix reducible(linalg::Matrix{{1.0, 0.0, 0.0},
                                                          {0.0, 1.0, 0.0},
                                                          {0.0, 0.0, 1.0}});
  EXPECT_TRUE(std::isinf(evaluator.cost_at(reducible)));
  EXPECT_EQ(evaluator.stats().full_solves, 2u);
  EXPECT_TRUE(std::isfinite(evaluator.cost_at(one_row)));
  EXPECT_EQ(evaluator.stats().full_solves, 3u);
  EXPECT_EQ(evaluator.stats().exact_hits, 2u);
}

TEST(ChainProperties, OptimizationOutcomeExportsCacheStats) {
  // The outcome carries the descent's chain-solve counters. An adaptive run
  // both solves (every dense descent step moves every row) and re-probes
  // the memoized iterate (the gradient analysis of a just-accepted
  // line-search candidate), so both counters must be visible.
  const core::Problem problem = test::paper_problem(1, 0.0, 1.0);
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 50;
  const core::OptimizationOutcome outcome =
      core::CoverageOptimizer(problem, opts).run();
  EXPECT_GT(outcome.chain_stats.full_solves, 0u);
  EXPECT_GT(outcome.chain_stats.exact_hits, 0u);
  EXPECT_EQ(outcome.chain_stats.sparse_full_solves, 0u);

  // A basic (V1) run solves the start and each step's candidate once; each
  // iteration's gradient analysis re-probes the accepted candidate, so the
  // memo halves the solves: N + 1 solves and N hits for N iterations.
  opts.algorithm = core::Algorithm::kBasic;
  opts.max_iterations = 60;
  opts.constant_step = 0.05;
  const core::OptimizationOutcome basic =
      core::CoverageOptimizer(test::paper_problem(2, 1.0, 1e-4), opts).run();
  ASSERT_EQ(basic.stop_reason, descent::StopReason::kMaxIterations);
  EXPECT_EQ(basic.chain_stats.full_solves, basic.iterations + 1);
  EXPECT_EQ(basic.chain_stats.exact_hits, basic.iterations);

  // Accumulation across phases: ChainSolveStats::add sums every counter.
  markov::ChainSolveStats sum = outcome.chain_stats;
  sum.add(outcome.chain_stats);
  EXPECT_EQ(sum.full_solves, 2 * outcome.chain_stats.full_solves);
  EXPECT_EQ(sum.exact_hits, 2 * outcome.chain_stats.exact_hits);
}

TEST(ChainProperties, OnlyCostsThatReadZBuildIt) {
  // chain_cache.fundamental_solves counts the full solves that also built
  // Z: none for the paper's objectives, every one once event capture joins.
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 20;
  const core::OptimizationOutcome plain =
      core::CoverageOptimizer(test::paper_problem(2, 1.0, 1.0), opts).run();
  EXPECT_GT(plain.chain_stats.full_solves, 0u);
  EXPECT_EQ(plain.chain_stats.fundamental_solves, 0u);

  core::Weights weights;
  weights.capture_weight = 1.0;
  weights.capture_duration = 2.0;
  weights.lambda_skew = 1.0;
  const core::Problem capture(geometry::paper_topology(2), core::Physics{},
                              weights);
  const core::OptimizationOutcome with_z =
      core::CoverageOptimizer(capture, opts).run();
  EXPECT_GT(with_z.chain_stats.full_solves, 0u);
  EXPECT_EQ(with_z.chain_stats.fundamental_solves,
            with_z.chain_stats.full_solves);
}

TEST(ChainProperties, ResolventRejectsNonErgodicChain) {
  // Two closed classes: the resolvent system is singular and the solve must
  // report a structured failure, not NaN.
  linalg::Matrix m{{0.5, 0.5, 0.0, 0.0},
                   {0.5, 0.5, 0.0, 0.0},
                   {0.0, 0.0, 0.5, 0.5},
                   {0.0, 0.0, 0.5, 0.5}};
  const auto solved =
      markov::try_resolvent_analysis(markov::TransitionMatrix(m));
  ASSERT_FALSE(solved.ok());
  EXPECT_TRUE(util::is_numerical_failure(solved.status().code()));
}

}  // namespace
}  // namespace mocos
