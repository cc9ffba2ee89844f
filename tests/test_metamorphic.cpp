// Metamorphic tests: known transformations of a problem with exactly known
// effects on the outputs. Unlike the unit tests these never check absolute
// numbers — only that the implementation respects the symmetries the math
// promises, which catches indexing bugs no hand-computed fixture would.
//
// Relations covered:
//  1. PoI relabeling. Permuting the PoI list (positions + targets) and
//     conjugating the schedule by the same permutation must leave the cost,
//     ΔC, and Ē invariant, and permute the per-PoI shares/exposures.
//  2. Chain-level permutation similarity: π, Z, R transform by relabeling.
//  3. Physical-time rescaling. speed → speed/s and pause → pause·s scales
//     every duration T_jk and coverage time T_jk,i by exactly s, so ΔC
//     scales by s², the coverage shares C̄_i are invariant (ratios of
//     times), and the transition-counted exposure Ē is invariant.

#include <cmath>
#include <cstddef>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/problem.hpp"
#include "src/cost/composite_cost.hpp"
#include "src/cost/event_capture_term.hpp"
#include "src/cost/metrics.hpp"
#include "src/cost/minimax_exposure_term.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/geometry/topology.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos {
namespace {

/// Six PoIs in general position with a deliberately non-uniform allocation,
/// so no symmetry of the instance can mask a relabeling bug.
const std::vector<geometry::Vec2> kPositions = {
    {0.0, 0.0}, {2.0, 0.3}, {0.7, 1.9}, {3.1, 2.2}, {1.5, 3.4}, {3.8, 0.9}};
const std::vector<double> kTargets = {0.25, 0.10, 0.20, 0.15, 0.05, 0.25};

core::Problem make_problem(const std::vector<std::size_t>& perm,
                           core::Physics physics) {
  std::vector<geometry::Vec2> pos(perm.size());
  std::vector<double> tgt(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    pos[i] = kPositions[perm[i]];
    tgt[i] = kTargets[perm[i]];
  }
  core::Weights w;
  w.alpha = 1.0;
  w.beta = 0.5;
  w.epsilon = 1e-4;
  return core::Problem(geometry::Topology("metamorphic", std::move(pos),
                                          std::move(tgt)),
                       physics, w);
}

std::vector<std::size_t> identity_perm() { return {0, 1, 2, 3, 4, 5}; }

/// Conjugates a schedule by the relabeling: state i of the permuted problem
/// is state perm[i] of the original, so P'(i,j) = P(perm[i], perm[j]).
markov::TransitionMatrix conjugate(const markov::TransitionMatrix& p,
                                   const std::vector<std::size_t>& perm) {
  const std::size_t n = p.size();
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = p(perm[i], perm[j]);
  return markov::TransitionMatrix(std::move(m));
}

TEST(Metamorphic, PoiRelabelingLeavesScalarMetricsInvariant) {
  const std::vector<std::vector<std::size_t>> perms = {
      {5, 0, 3, 1, 4, 2}, {1, 2, 3, 4, 5, 0}, {3, 4, 0, 5, 2, 1}};
  const core::Problem base = make_problem(identity_perm(), core::Physics{});
  const cost::CompositeCost base_cost = base.make_cost();

  util::Rng rng(2024);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const markov::TransitionMatrix p = test::random_positive_chain(6, rng);
    const cost::Metrics m = base.metrics_of(p);
    const double u =
        base_cost.value(test::unwrap(markov::try_analyze_chain(p)));

    for (const auto& perm : perms) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      const core::Problem relabeled = make_problem(perm, core::Physics{});
      const markov::TransitionMatrix q = conjugate(p, perm);
      const cost::Metrics mm = relabeled.metrics_of(q);

      EXPECT_NEAR(mm.delta_c, m.delta_c, 1e-12 + 1e-9 * m.delta_c);
      EXPECT_NEAR(mm.e_bar, m.e_bar, 1e-9);
      EXPECT_NEAR(relabeled.report_cost(q), base.report_cost(p), 1e-9);

      // The full penalized cost U_ε (barrier included) is also invariant:
      // the barrier only reads entries of P, which relabeling permutes.
      const double uu = relabeled.make_cost().value(
          test::unwrap(markov::try_analyze_chain(q)));
      EXPECT_NEAR(uu, u, 1e-9 * (1.0 + std::abs(u)));

      // Per-PoI vectors permute with the labels.
      for (std::size_t i = 0; i < perm.size(); ++i) {
        EXPECT_NEAR(mm.c_share[i], m.c_share[perm[i]], 1e-10);
        EXPECT_NEAR(mm.exposure[i], m.exposure[perm[i]], 1e-9);
      }
    }
  }
}

TEST(Metamorphic, ChainAnalysisRespectsPermutationSimilarity) {
  const std::vector<std::size_t> perm = {4, 2, 0, 5, 1, 3};
  util::Rng rng(7);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const markov::TransitionMatrix p = test::random_positive_chain(6, rng);
    const markov::TransitionMatrix q = conjugate(p, perm);
    const markov::ChainAnalysis a = test::unwrap(markov::try_analyze_chain(p));
    const markov::ChainAnalysis b = test::unwrap(markov::try_analyze_chain(q));
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(b.pi[i], a.pi[perm[i]], 1e-12);
      for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_NEAR(b.z(i, j), a.z(perm[i], perm[j]), 1e-10);
        EXPECT_NEAR(b.r(i, j), a.r(perm[i], perm[j]), 1e-9);
      }
    }
  }
}

TEST(Metamorphic, PoiRelabelingInvariantAcrossSparseBlockBoundaries) {
  // Sparse-path variant of the relabeling relation: a support-restricted
  // city problem analyzed through the sparse ladder (SolvePolicy::kSparse)
  // must report the same U / ΔC / Ē for any PoI relabeling — in particular
  // one that scatters spatially-adjacent PoIs far apart, which catches any
  // index confusion in the ladder's RCM permutation.
  geometry::CityConfig cfg;
  cfg.count = 36;
  cfg.seed = 12;
  const geometry::Topology base_topo = geometry::city_topology(cfg);
  const std::size_t n = base_topo.size();

  // A stride permutation: spatial neighbours (adjacent row-major indices)
  // land far apart in the new labeling.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = (i * 13) % n;

  core::Physics physics;
  physics.sensing_radius = 0.1;  // city min separation is >= 0.3
  physics.support_radius = 2.0;
  core::Weights w;
  w.alpha = 1.0;
  w.beta = 0.5;

  auto permuted_problem = [&](const std::vector<std::size_t>& sigma) {
    std::vector<geometry::Vec2> pos(n);
    std::vector<double> tgt(n);
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = base_topo.position(sigma[i]);
      tgt[i] = base_topo.target(sigma[i]);
    }
    return core::Problem(
        geometry::Topology("relabel", std::move(pos), std::move(tgt)),
        physics, w);
  };
  std::vector<std::size_t> identity(n);
  for (std::size_t i = 0; i < n; ++i) identity[i] = i;
  const core::Problem base = permuted_problem(identity);
  const core::Problem relabeled = permuted_problem(perm);

  // A support-respecting schedule whose entries depend only on the PoI
  // coordinates, so it conjugates exactly with the labels.
  auto support_chain = [&](const core::Problem& problem) {
    linalg::Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t j : problem.support()[i]) {
        const auto a = problem.topology().position(i);
        const auto b = problem.topology().position(j);
        m(i, j) = 1.0 + 0.5 * std::abs(std::sin(a.x * 3.1 + b.y * 2.7));
        sum += m(i, j);
      }
      for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
    }
    return markov::TransitionMatrix(std::move(m));
  };
  const markov::TransitionMatrix p = support_chain(base);
  const markov::TransitionMatrix q = support_chain(relabeled);
  // Sanity: q really is the conjugated schedule.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_NEAR(q(i, j), p(perm[i], perm[j]), 1e-15);

  const markov::ChainAnalysis a_base = test::unwrap(
      markov::try_analyze_chain(p, markov::SolvePolicy::kSparse));
  const markov::ChainAnalysis a_rel = test::unwrap(
      markov::try_analyze_chain(q, markov::SolvePolicy::kSparse));
  const cost::Metrics m_base =
      cost::compute_metrics(a_base, base.tensors(), base.targets());
  const cost::Metrics m_rel =
      cost::compute_metrics(a_rel, relabeled.tensors(), relabeled.targets());
  EXPECT_NEAR(m_rel.delta_c, m_base.delta_c,
              1e-12 + 1e-8 * m_base.delta_c);
  EXPECT_NEAR(m_rel.e_bar, m_base.e_bar, 1e-8);
  const double u_base = base.make_cost().value(a_base);
  const double u_rel = relabeled.make_cost().value(a_rel);
  EXPECT_NEAR(u_rel, u_base, 1e-8 * (1.0 + std::abs(u_base)));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(m_rel.c_share[i], m_base.c_share[perm[i]], 1e-9);
}

TEST(Metamorphic, PoiRelabelingInvariantForCaptureAndMinimaxTerms) {
  // Relabeling relation for the event-capture and minimax-exposure
  // objectives: permuting PoIs together with their event rates and
  // conjugating the schedule must permute the per-PoI capture
  // probabilities and softmax weights, and leave the captured fraction,
  // the smooth max, and the full composite cost invariant.
  const std::vector<double> kRates = {0.30, 0.05, 0.20, 0.15, 0.10, 0.20};
  const std::vector<std::size_t> perm = {5, 0, 3, 1, 4, 2};
  const double duration = 2.0;
  const double smoothmax_beta = 5.0;

  auto capture_problem = [&](const std::vector<std::size_t>& sigma) {
    std::vector<geometry::Vec2> pos(sigma.size());
    std::vector<double> tgt(sigma.size());
    std::vector<double> rates(sigma.size());
    for (std::size_t i = 0; i < sigma.size(); ++i) {
      pos[i] = kPositions[sigma[i]];
      tgt[i] = kTargets[sigma[i]];
      rates[i] = kRates[sigma[i]];
    }
    core::Weights w;
    w.alpha = 1.0;
    w.beta = 0.5;
    w.information_gamma = 0.0;  // isolate the new terms from the info term
    w.event_rates = std::move(rates);
    w.capture_weight = 1.2;
    w.capture_duration = duration;
    w.minimax_weight = 0.8;
    w.smoothmax_beta = smoothmax_beta;
    return core::Problem(
        geometry::Topology("metamorphic", std::move(pos), std::move(tgt)),
        core::Physics{}, w);
  };
  const core::Problem base = capture_problem(identity_perm());
  const core::Problem relabeled = capture_problem(perm);

  std::vector<double> perm_rates(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    perm_rates[i] = kRates[perm[i]];
  const cost::EventCaptureTerm cap(kRates, duration, 1.0);
  const cost::EventCaptureTerm cap_perm(perm_rates, duration, 1.0);
  const cost::MinimaxExposureTerm mm(1.0, smoothmax_beta);

  util::Rng rng(31);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const markov::TransitionMatrix p = test::random_positive_chain(6, rng);
    const markov::TransitionMatrix q = conjugate(p, perm);
    const markov::ChainAnalysis a = test::unwrap(markov::try_analyze_chain(p));
    const markov::ChainAnalysis b = test::unwrap(markov::try_analyze_chain(q));

    const linalg::Vector f = cap.per_poi_capture(a);
    const linalg::Vector ff = cap_perm.per_poi_capture(b);
    const linalg::Vector sigma = mm.softmax_weights(a);
    const linalg::Vector sigma_perm = mm.softmax_weights(b);
    for (std::size_t i = 0; i < perm.size(); ++i) {
      EXPECT_NEAR(ff[i], f[perm[i]], 1e-10);
      EXPECT_NEAR(sigma_perm[i], sigma[perm[i]], 1e-9);
    }
    EXPECT_NEAR(cap_perm.capture_fraction(b), cap.capture_fraction(a), 1e-10);
    EXPECT_NEAR(mm.smooth_max(b), mm.smooth_max(a), 1e-9);

    const double u = base.make_cost().value(a);
    const double uu = relabeled.make_cost().value(b);
    EXPECT_NEAR(uu, u, 1e-9 * (1.0 + std::abs(u)));
  }
}

TEST(Metamorphic, TimeRescalingScalesDurationsAndMetricsExactly) {
  const double s = 3.0;
  core::Physics base_phys;          // speed 1, pause 1
  core::Physics scaled_phys;
  scaled_phys.speed = base_phys.speed / s;
  scaled_phys.pause = base_phys.pause * s;

  const core::Problem base = make_problem(identity_perm(), base_phys);
  const core::Problem scaled = make_problem(identity_perm(), scaled_phys);

  // Every duration and per-PoI coverage time scales by exactly s.
  const std::size_t n = base.num_pois();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(scaled.tensors().durations()(j, k),
                  s * base.tensors().durations()(j, k), 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& base_entries = base.tensors().coverage_entries(i);
    const auto& scaled_entries = scaled.tensors().coverage_entries(i);
    ASSERT_EQ(scaled_entries.size(), base_entries.size());
    for (std::size_t e = 0; e < base_entries.size(); ++e) {
      EXPECT_EQ(scaled_entries[e].j, base_entries[e].j);
      EXPECT_EQ(scaled_entries[e].k, base_entries[e].k);
      EXPECT_NEAR(scaled_entries[e].value, s * base_entries[e].value, 1e-12);
    }
  }

  util::Rng rng(99);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const markov::TransitionMatrix p = test::random_positive_chain(n, rng);
    const cost::Metrics m = base.metrics_of(p);
    const cost::Metrics ms = scaled.metrics_of(p);

    // ΔC is a sum of squared time-weighted deviations: scales by s².
    EXPECT_NEAR(ms.delta_c, s * s * m.delta_c, 1e-9 * (1.0 + m.delta_c));
    // Coverage shares are ratios of times: invariant.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(ms.c_share[i], m.c_share[i], 1e-12);
    // Exposure counts transitions, not seconds (Eq. 3's unit-transition
    // convention): invariant under physical-time rescaling.
    EXPECT_NEAR(ms.e_bar, m.e_bar, 1e-12);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(ms.exposure[i], m.exposure[i], 1e-12);
  }
}

}  // namespace
}  // namespace mocos
