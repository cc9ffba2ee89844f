#include "src/cost/exposure_term.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/cost/barrier_term.hpp"
#include "src/cost/composite_cost.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/energy_term.hpp"
#include "src/cost/entropy_term.hpp"
#include "src/cost/event_capture_term.hpp"
#include "src/cost/gradient.hpp"
#include "src/cost/information_term.hpp"
#include "src/cost/minimax_exposure_term.hpp"
#include "src/cost/projection.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/markov/resolvent.hpp"
#include "src/markov/sensitivity.hpp"
#include "tests/exposure_reference.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

TEST(ExposureTerm, TwoStateClosedForm) {
  // chain2(a,b): leaving 0 always goes to 1, return time R_10 = 1/b, so
  // E_0 = 1/b; symmetrically E_1 = 1/a.
  const double a = 0.3, b = 0.2;
  const auto chain =
      test::unwrap(markov::try_analyze_chain(test::chain2(a, b)));
  const auto e = ExposureTerm::compute_mean_exposures(chain);
  EXPECT_NEAR(e[0], 1.0 / b, 1e-10);
  EXPECT_NEAR(e[1], 1.0 / a, 1e-10);
}

TEST(ExposureTerm, MatchesDirectFormulaFromR) {
  // Ē_i = Σ_{j≠i} p_ij R_ji / (1 - p_ii) with R from the chain analysis.
  util::Rng rng(71);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const auto e = ExposureTerm::compute_mean_exposures(chain);
    for (std::size_t i = 0; i < 5; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < 5; ++j)
        if (j != i) s += p(i, j) * chain.r(j, i);
      EXPECT_NEAR(e[i], s / (1.0 - p(i, i)), 1e-9);
    }
  }
}

TEST(ExposureTerm, ExposureAtLeastOne) {
  // Every return takes at least one transition.
  util::Rng rng(72);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(6, rng)));
  for (double e : ExposureTerm::compute_mean_exposures(chain))
    EXPECT_GE(e, 1.0 - 1e-9);
}

TEST(ExposureTerm, ValueIsHalfWeightedSquares) {
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  ExposureTerm term(3, 2.0);
  const auto e = term.mean_exposures(chain);
  double expect = 0.0;
  for (double x : e) expect += 0.5 * 2.0 * x * x;
  EXPECT_NEAR(term.value(chain), expect, 1e-12);
}

TEST(ExposureTerm, HigherStayProbabilityRaisesOthersExposure) {
  // If the sensor lingers at state 0, exposures of other states grow.
  const auto lazy = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix(linalg::Matrix{
          {0.90, 0.05, 0.05}, {0.1, 0.6, 0.3}, {0.4, 0.4, 0.2}})));
  const auto busy = test::unwrap(markov::try_analyze_chain(test::chain3()));
  const auto e_lazy = ExposureTerm::compute_mean_exposures(lazy);
  const auto e_busy = ExposureTerm::compute_mean_exposures(busy);
  EXPECT_GT(e_lazy[1], e_busy[1]);
  EXPECT_GT(e_lazy[2], e_busy[2]);
}

TEST(ExposureTerm, UniformChainSymmetry) {
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(5)));
  const auto e = ExposureTerm::compute_mean_exposures(chain);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_NEAR(e[i], e[0], 1e-10);
}

TEST(ExposureTerm, PartialsFillOnlyPiAndPChannels) {
  // In closed form Ē_i depends on (π_i, p_ii) alone: the exposure and
  // minimax partials fill the π and P channels and leave ∂U/∂Z at zero, so
  // of all the terms only event capture declares that it reads Z.
  util::Rng rng(73);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  const ExposureTerm exposure(4, 1.0);
  const MinimaxExposureTerm minimax(1.0, 4.0);
  for (const CostTerm* term : {static_cast<const CostTerm*>(&exposure),
                               static_cast<const CostTerm*>(&minimax)}) {
    SCOPED_TRACE(term->name());
    Partials p(4);
    term->accumulate_partials(chain, p);
    double pi_mag = 0.0;
    for (double x : p.du_dpi) pi_mag += x * x;
    EXPECT_GT(pi_mag, 0.0);
    EXPECT_GT(linalg::frobenius_dot(p.du_dp, p.du_dp), 0.0);
    EXPECT_EQ(linalg::frobenius_dot(p.du_dz, p.du_dz), 0.0);
  }

  const sensing::TravelModel model(geometry::paper_topology(1), 1.0, 1.0,
                                   0.25);
  const sensing::CoverageTensors tensors(model);
  const std::vector<double> rates{0.4, 0.3, 0.2, 0.1};
  std::vector<std::unique_ptr<CostTerm>> terms;
  terms.push_back(std::make_unique<CoverageDeviationTerm>(
      tensors, model.topology().targets(), 1.0));
  terms.push_back(std::make_unique<ExposureTerm>(4, 1.0));
  terms.push_back(std::make_unique<BarrierTerm>(1e-4));
  terms.push_back(std::make_unique<EnergyTerm>(tensors, 0.5, 0.2));
  terms.push_back(std::make_unique<EntropyTerm>(0.1));
  terms.push_back(
      std::make_unique<InformationCaptureTerm>(tensors, rates, 1.0));
  terms.push_back(std::make_unique<MinimaxExposureTerm>(1.0, 4.0));
  terms.push_back(std::make_unique<EventCaptureTerm>(rates, 2.0, 1.0));
  for (const auto& term : terms)
    EXPECT_EQ(term->needs_fundamental(), term->name() == "event_capture")
        << term->name();
}

// --- Closed form against the Eq. 3 oracle ------------------------------------

/// A support-restricted city chain on the sparse route: city:n with
/// support_radius 2.0, support-uniform rows perturbed so no two PoIs look
/// alike (structural zeros stay zero).
markov::TransitionMatrix sparse_city_chain(std::size_t n, std::uint64_t seed) {
  geometry::CityConfig cfg;
  cfg.count = n;
  cfg.seed = seed;
  const auto topo = geometry::city_topology(cfg);
  linalg::Matrix m =
      descent::support_uniform_start(linalg::SparsityPattern::from_rows(
                                         n, geometry::radius_neighbors(topo,
                                                                       2.0)))
          .to_dense();
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) *= 0.5 + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  return markov::TransitionMatrix(std::move(m));
}

double max_rel_gap(const linalg::Matrix& got, const linalg::Matrix& ref) {
  double gap = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      gap = std::max(gap, std::abs(got(i, j) - ref(i, j)));
      scale = std::max(scale, std::abs(ref(i, j)));
    }
  return gap / scale;
}

TEST(ExposureTerm, ClosedFormMatchesEq3OnSparseCity) {
  const auto p = sparse_city_chain(256, 11);
  ASSERT_TRUE(markov::sparse_path_enabled(p.csr()));
  const auto full = test::unwrap(markov::try_analyze_chain(p));
  const auto pi_only = test::unwrap(markov::try_analyze_chain(
      p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary));
  const linalg::Vector closed = ExposureTerm::compute_mean_exposures(pi_only);
  const linalg::Vector eq3 = test::eq3_mean_exposures(full);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(closed[i], eq3[i], 1e-10 * std::abs(eq3[i])) << "PoI " << i;
}

/// The reference pipeline: Eq. 3's (π, Z, P) partials with outer derivative
/// `g`, through the full Eq. 10 chain rule with explicit Z, projected.
linalg::Matrix eq3_projected_gradient(const markov::ChainAnalysis& full,
                                      const linalg::Vector& g) {
  Partials partials(full.p.size());
  test::eq3_accumulate_weighted_exposure_partials(full, g, partials);
  return project_row_sum_zero_on_support(
             markov::chain_rule_gradient(
                 full, partials.du_dpi, partials.du_dz,
                 test::on_pattern(full.p, partials.du_dp.to_dense())),
             full.p)
      .to_dense();
}

/// The π-only projected gradient of a one-term cost matches the reference
/// pipeline, through the descent's own route (the probe's factorization)
/// and through a fresh factorization.
void expect_pi_only_gradient_matches_eq3(const markov::TransitionMatrix& p,
                                         double beta, double minimax_beta) {
  const auto full = test::unwrap(markov::try_analyze_chain(p));
  const auto solved = test::unwrap(markov::try_resolvent_analysis(
      p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary));
  ASSERT_TRUE(solved.resolvent.has_value());

  CompositeCost exposure;
  exposure.add(std::make_unique<ExposureTerm>(p.size(), beta));
  linalg::Vector g = test::eq3_mean_exposures(full);
  for (double& x : g) x *= beta;
  const linalg::Matrix exposure_ref = eq3_projected_gradient(full, g);
  EXPECT_LE(max_rel_gap(projected_cost_gradient(exposure, solved.chain,
                                                &*solved.resolvent)
                            .to_dense(),
                        exposure_ref),
            1e-10);
  EXPECT_LE(max_rel_gap(
                projected_cost_gradient(exposure, solved.chain).to_dense(),
                exposure_ref),
            1e-10);

  const MinimaxExposureTerm minimax_term(0.7, minimax_beta);
  CompositeCost minimax;
  minimax.add(std::make_unique<MinimaxExposureTerm>(0.7, minimax_beta));
  linalg::Vector sigma = minimax_term.softmax_weights(full);
  for (double& x : sigma) x *= 0.7;
  const linalg::Matrix minimax_ref = eq3_projected_gradient(full, sigma);
  EXPECT_LE(max_rel_gap(projected_cost_gradient(minimax, solved.chain,
                                                &*solved.resolvent)
                            .to_dense(),
                        minimax_ref),
            1e-10);
  EXPECT_LE(max_rel_gap(
                projected_cost_gradient(minimax, solved.chain).to_dense(),
                minimax_ref),
            1e-10);
}

TEST(ExposureTerm, PiOnlyGradientMatchesEq3PipelineOnPaperSizes) {
  // The GradientFd shapes: random positive chains on 4 and 9 PoIs.
  util::Rng rng(120);
  for (const std::size_t n : {4u, 4u, 9u, 9u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_pi_only_gradient_matches_eq3(test::random_positive_chain(n, rng),
                                        1.0, 4.0);
  }
}

TEST(ExposureTerm, PiOnlyGradientMatchesEq3PipelineOnRingSupport) {
  // GradientFd's support-restricted ring: self plus both neighbours.
  const std::size_t n = 8;
  util::Rng rng(115);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t d = 0; d < 3; ++d) {
      const std::size_t j = (i + n - 1 + d) % n;
      m(i, j) = 0.05 + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  expect_pi_only_gradient_matches_eq3(markov::TransitionMatrix(std::move(m)),
                                      0.5, 5.0);
}

TEST(ExposureTerm, PiOnlyGradientMatchesEq3PipelineOnSparseCity) {
  const auto p = sparse_city_chain(256, 11);
  const auto solved = test::unwrap(markov::try_resolvent_analysis(
      p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary));
  EXPECT_TRUE(solved.sparse);
  expect_pi_only_gradient_matches_eq3(p, 1e-3, 0.5);
}

TEST(ExposureTerm, RejectsBadInput) {
  EXPECT_THROW(ExposureTerm(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(ExposureTerm(3, -1.0), std::invalid_argument);
  ExposureTerm term(4, 1.0);
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EXPECT_THROW(term.value(chain), std::invalid_argument);
}

}  // namespace
}  // namespace mocos::cost
