#include "src/sparse/resolvent_ladder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/optimizer.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/linalg/norms.hpp"
#include "src/markov/resolvent.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/markov/stationary.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

/// Weakly-coupled city fixture: uniform transitions over the radius-2
/// neighbourhoods of a jittered grid (4-connected at minimum, so ergodic).
markov::TransitionMatrix city_chain(std::size_t n, std::uint64_t seed) {
  geometry::CityConfig cfg;
  cfg.count = n;
  cfg.seed = seed;
  const auto topo = geometry::city_topology(cfg);
  return descent::support_uniform_start(linalg::SparsityPattern::from_rows(
      n, geometry::radius_neighbors(topo, 2.0)));
}

double max_abs_gap(const linalg::Vector& a, const linalg::Vector& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    gap = std::max(gap, std::abs(a[i] - b[i]));
  return gap;
}

double max_rel_gap(const linalg::Matrix& a, const linalg::Matrix& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      gap = std::max(gap, std::abs(a(i, j) - b(i, j)) /
                              std::max(1.0, std::abs(b(i, j))));
  return gap;
}

/// Whether the ladder serves `p` on its banded rung (else BiCGSTAB).
bool banded_rung(const markov::TransitionMatrix& p) {
  const linalg::Vector c(p.size(), 1.0 / static_cast<double>(p.size()));
  return test::unwrap(sparse::SparseResolvent::try_factor(p.csr(), c))
      .banded();
}

/// Factors `p` under kSparse with a metrics registry installed and returns
/// how many times it fell back to the dense LU.
std::uint64_t sparse_fallbacks(const markov::TransitionMatrix& p) {
  using markov::SolvePolicy;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetrics install(&registry);
    const auto res = markov::Resolvent::try_factor(p, SolvePolicy::kSparse);
    EXPECT_TRUE(res.ok() && res->sparse());
  }
  EXPECT_EQ(registry.counter("markov.sparse.solves").value(), 1u);
  return registry.counter("markov.sparse.fallbacks").value();
}

TEST(CityTopology, DeterministicSeparatedAndSeeded) {
  geometry::CityConfig cfg;
  cfg.count = 100;
  cfg.seed = 42;
  const auto a = geometry::city_topology(cfg);
  const auto b = geometry::city_topology(cfg);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x);
    EXPECT_EQ(a.position(i).y, b.position(i).y);
    EXPECT_EQ(a.target(i), b.target(i));
  }
  // The jitter cap guarantees >= 0.3 * spacing pairwise separation.
  EXPECT_GE(a.min_separation(), 0.3);

  cfg.seed = 43;
  const auto c = geometry::city_topology(cfg);
  EXPECT_NE(a.position(0).x, c.position(0).x);
}

TEST(CityTopology, RadiusNeighborsMatchBruteForce) {
  geometry::CityConfig cfg;
  cfg.count = 60;
  cfg.seed = 7;
  const auto topo = geometry::city_topology(cfg);
  for (const double radius : {0.8, 1.7, 3.2}) {
    const auto fast = geometry::radius_neighbors(topo, radius);
    ASSERT_EQ(fast.size(), topo.size());
    for (std::size_t i = 0; i < topo.size(); ++i) {
      std::vector<std::size_t> brute;
      for (std::size_t j = 0; j < topo.size(); ++j)
        if (topo.distance(i, j) <= radius) brute.push_back(j);
      EXPECT_EQ(fast[i], brute) << "PoI " << i << " radius " << radius;
    }
  }
}

TEST(SparseAnalysis, PiAndPassageTimesMatchDense) {
  // try_analyze_chain on the sparse ladder against the Kemeny–Snell
  // pipeline: the 1e-10 parity contract on π, Z and R.
  const auto p = city_chain(196, 2);
  const markov::ChainAnalysis sparse_chain =
      test::unwrap(markov::try_analyze_chain(p, markov::SolvePolicy::kSparse));
  const markov::ChainAnalysis reference = test::kemeny_snell_analysis(p);
  EXPECT_LE(max_abs_gap(sparse_chain.pi, reference.pi), 1e-10);
  EXPECT_LE(max_rel_gap(sparse_chain.z, reference.z), 1e-10);
  EXPECT_LE(max_rel_gap(sparse_chain.r, reference.r), 1e-10);
  EXPECT_EQ(sparse_fallbacks(p), 0u);
}

TEST(SparseAnalysis, FullyCoupledChainStillMatchesDense) {
  // A dense random chain has RCM bandwidth above the banded rung's cap, so
  // the ladder serves it by BiCGSTAB, whose π passes the fixed-point gate;
  // the answer must match the dense pipeline.
  util::Rng rng(31);
  const auto p = test::random_positive_chain(24, rng);
  EXPECT_FALSE(banded_rung(p));
  EXPECT_EQ(sparse_fallbacks(p), 0u);
  const auto chain = markov::try_analyze_chain(p, markov::SolvePolicy::kSparse);
  ASSERT_TRUE(chain.ok()) << chain.status().message();
  const auto dense = markov::try_analyze_chain(p, markov::SolvePolicy::kDense);
  ASSERT_TRUE(dense.ok());
  EXPECT_LE(max_abs_gap(chain->pi, dense->pi), 1e-8);
  EXPECT_LE(max_rel_gap(chain->r, dense->r), 1e-8);
}

TEST(SparseMode, AutoGateRespectsSizeAndDensity) {
  // Small chains never take the sparse path under kAuto.
  EXPECT_FALSE(markov::sparse_path_enabled(test::chain3().csr()));
  // A large sparse chain does...
  const auto big = city_chain(256, 4);
  EXPECT_TRUE(markov::sparse_path_enabled(big.csr()));
  // ...but a large dense chain does not (density above the cutoff).
  util::Rng rng(5);
  const auto dense = test::random_positive_chain(200, rng);
  EXPECT_FALSE(markov::sparse_path_enabled(dense.csr()));

  // The policy argument is the only other input: kAuto defers to the gate,
  // kSparse forces the ladder down to the M >= 8 floor, and the dense and
  // power-iteration policies never route sparse.
  using markov::SolvePolicy;
  EXPECT_TRUE(markov::routes_sparse(SolvePolicy::kAuto, big.csr()));
  EXPECT_FALSE(markov::routes_sparse(SolvePolicy::kAuto, dense.csr()));
  EXPECT_TRUE(markov::routes_sparse(SolvePolicy::kSparse, dense.csr()));
  EXPECT_FALSE(markov::routes_sparse(SolvePolicy::kSparse,
                                     test::chain2(0.3, 0.4).csr()));
  EXPECT_FALSE(markov::routes_sparse(SolvePolicy::kDense, big.csr()));
  EXPECT_FALSE(
      markov::routes_sparse(SolvePolicy::kPowerIteration, big.csr()));
}

TEST(SparseMode, AutoGatePinnedExactlyAtItsBoundaries) {
  // Regression pin on the documented kAuto contract — M >= 192 AND
  // density <= 0.25, both comparisons inclusive. A drift in either constant
  // or a <-vs-<= slip silently reroutes city-scale maps between pipelines;
  // this test fails loudly instead.
  ASSERT_EQ(markov::kSparseAutoMinSize, 192u);
  ASSERT_EQ(markov::kSparseAutoMaxDensity, 0.25);

  // Identical ring structure (self + both neighbours, density 3/M << 0.25)
  // on either side of the size cutoff: 191 stays dense, 192 goes sparse.
  const auto ring = [](std::size_t n) {
    linalg::Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      m(i, i) = 0.5;
      m(i, (i + 1) % n) = 0.25;
      m(i, (i + n - 1) % n) = 0.25;
    }
    return m;
  };
  EXPECT_FALSE(markov::sparse_path_enabled(
      linalg::SparseMatrix::from_dense(ring(191))));
  EXPECT_TRUE(markov::sparse_path_enabled(
      linalg::SparseMatrix::from_dense(ring(192))));

  // Density boundary at M = 192: exactly 25% nonzeros still qualifies; one
  // extra nonzero tips the chain back to the dense pipeline.
  const std::size_t n = markov::kSparseAutoMinSize;
  const std::size_t row_quota = n / 4;  // 48 nonzeros/row == exactly 25%
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < row_quota; ++k)
      m(i, (i + k) % n) = 1.0 / static_cast<double>(row_quota);
  EXPECT_TRUE(
      markov::sparse_path_enabled(linalg::SparseMatrix::from_dense(m)));
  m(0, row_quota) = 1e-12;  // 25% + one entry
  EXPECT_FALSE(
      markov::sparse_path_enabled(linalg::SparseMatrix::from_dense(m)));
}

TEST(SparseResolvent, ParityHoldsAtBlockLevel) {
  // The descent's resolvent solve on the sparse ladder agrees with the
  // Kemeny–Snell pipeline to 1e-10, at the start chain and along a walk of
  // support-preserving row perturbations.
  const auto start = city_chain(64, 6);
  linalg::Matrix m = start.to_dense();
  util::Rng rng(77);
  for (int step = 0; step < 6; ++step) {
    const markov::TransitionMatrix p(m);
    const auto got =
        markov::try_resolvent_analysis(p, markov::SolvePolicy::kSparse);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_TRUE(got->sparse) << "step " << step;  // G came from the ladder
    const markov::ChainAnalysis ref = test::kemeny_snell_analysis(p);
    EXPECT_LE(max_abs_gap(got->chain.pi, ref.pi), 1e-10) << "step " << step;
    EXPECT_LE(max_rel_gap(got->chain.z, ref.z), 1e-10) << "step " << step;
    EXPECT_LE(max_rel_gap(got->chain.r, ref.r), 1e-10) << "step " << step;

    const std::size_t row = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(m.rows()) - 0.001));
    double sum = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m(row, j) *= 0.5 + rng.uniform();  // structural zeros stay zero
      sum += m(row, j);
    }
    for (std::size_t j = 0; j < m.cols(); ++j) m(row, j) /= sum;
  }
}

TEST(SparseResolvent, StationarySolveMatchesDense) {
  // π on the sparse route is one transposed banded solve that passes the
  // fixed-point gate: the probes' π-only analysis and
  // try_stationary_distribution share it, and both agree with the dense LU
  // to 1e-10.
  const auto p = city_chain(256, 4);
  EXPECT_TRUE(banded_rung(p));
  EXPECT_EQ(sparse_fallbacks(p), 0u);
  const linalg::Vector dense = test::unwrap(
      markov::try_stationary_distribution(p, markov::SolvePolicy::kDense));
  const linalg::Vector sparse = test::unwrap(
      markov::try_stationary_distribution(p, markov::SolvePolicy::kAuto));
  EXPECT_LE(max_abs_gap(sparse, dense), 1e-10);

  const auto probe = test::unwrap(markov::try_resolvent_analysis(
      p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary));
  EXPECT_TRUE(probe.sparse);
  ASSERT_TRUE(probe.resolvent.has_value());
  EXPECT_TRUE(probe.resolvent->sparse());
  EXPECT_EQ(probe.chain.level(), markov::AnalysisLevel::kStationary);
  EXPECT_TRUE(probe.chain.z.empty());
  EXPECT_TRUE(probe.chain.r.empty());
  EXPECT_LE(max_abs_gap(probe.chain.pi, dense), 1e-10);
}

TEST(SparseResolvent, ResidualGateRejectsPerturbedPi) {
  // The gate accepts the dense π and rejects it moved by 1e-9 between two
  // PoIs (unit mass kept), far outside the 1e-12 fixed-point tolerance.
  const auto p = city_chain(256, 4);
  const linalg::SparseMatrix& csr = p.csr();
  linalg::Vector pi = test::unwrap(
      markov::try_stationary_distribution(p, markov::SolvePolicy::kDense));
  EXPECT_TRUE(markov::check_stationary_residual(csr, pi).is_ok());
  pi[0] += 1e-9;
  pi[1] -= 1e-9;
  const util::Status moved = markov::check_stationary_residual(csr, pi);
  EXPECT_EQ(moved.code(), util::StatusCode::kNotErgodic);
}

TEST(SparseDescent, SupportRestrictedProblemKeepsZerosEndToEnd) {
  geometry::CityConfig cfg;
  cfg.count = 49;
  cfg.seed = 9;
  core::Physics physics;
  physics.sensing_radius = 0.1;  // city min separation is 0.3
  physics.support_radius = 2.0;
  core::Weights w;
  const core::Problem problem(geometry::city_topology(cfg), physics, w);
  ASSERT_EQ(problem.support().size(), 49u);

  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 3;
  const core::CoverageOptimizer optimizer(problem, opts);
  const core::OptimizationOutcome outcome = optimizer.run();

  // The descent stayed on the support: structural zeros survived every
  // projection, step, clamp and renormalization exactly.
  const auto& support = problem.support();
  for (std::size_t i = 0; i < 49; ++i) {
    std::size_t s = 0;
    for (std::size_t j = 0; j < 49; ++j) {
      const bool on_support = s < support[i].size() && support[i][s] == j;
      if (on_support) {
        EXPECT_GT(outcome.p(i, j), 0.0);
        ++s;
      } else {
        EXPECT_EQ(outcome.p(i, j), 0.0);
      }
    }
  }
  EXPECT_TRUE(std::isfinite(outcome.penalized_cost));
  EXPECT_TRUE(std::isfinite(outcome.report_cost));
  EXPECT_TRUE(std::isfinite(outcome.metrics.delta_c));
}

}  // namespace
}  // namespace mocos
