// The central correctness test of the whole optimizer: the closed-form
// gradient [D_P U] (Eq. 10, combining the terms' partials through the
// Schweitzer chain rule) must match central finite differences of the full
// cost U_eps(P) along arbitrary row-sum-zero directions. This exercises, in
// one sweep: the stationary/fundamental computations, every cost term's
// partials, the chain-rule combiner, and the projection.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/sensing/travel_model.hpp"
#include "src/cost/barrier_term.hpp"
#include "src/cost/composite_cost.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/energy_term.hpp"
#include "src/cost/entropy_term.hpp"
#include "src/cost/event_capture_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/cost/gradient.hpp"
#include "src/cost/minimax_exposure_term.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

double directional_fd(const CompositeCost& u, const markov::TransitionMatrix& p,
                      const linalg::Matrix& v, double h) {
  const std::size_t n = p.size();
  linalg::Matrix plus(n, n), minus(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      plus(i, j) = p(i, j) + h * v(i, j);
      minus(i, j) = p(i, j) - h * v(i, j);
    }
  return (u.value(markov::TransitionMatrix(plus)) -
          u.value(markov::TransitionMatrix(minus))) /
         (2.0 * h);
}

void expect_gradient_matches_fd(const CompositeCost& u, int topology_size,
                                std::uint64_t seed, double tol) {
  util::Rng rng(seed);
  for (int t = 0; t < 6; ++t) {
    const auto p = test::random_positive_chain(
        static_cast<std::size_t>(topology_size), rng);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const auto v =
        test::random_direction(static_cast<std::size_t>(topology_size), rng);
    const auto grad = cost_gradient(u, chain);
    const double analytic = linalg::frobenius_dot(grad, v);
    const double fd = directional_fd(u, p, v, 1e-7);
    const double scale = std::max({std::abs(analytic), std::abs(fd), 1.0});
    EXPECT_NEAR(analytic, fd, tol * scale) << "trial " << t;
  }
}

struct Fixture {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  explicit Fixture(int topo)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {}
};

TEST(GradientFd, CoverageOnly) {
  Fixture f(3);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      f.tensors, f.model.topology().targets(), 1.0));
  expect_gradient_matches_fd(u, 4, 101, 1e-5);
}

TEST(GradientFd, ExposureOnly) {
  CompositeCost u;
  u.add(std::make_unique<ExposureTerm>(4, 1.0));
  expect_gradient_matches_fd(u, 4, 102, 1e-5);
}

TEST(GradientFd, BarrierOnly) {
  // Wide gates so random chains (entries ~0.02..0.5) activate the barrier.
  CompositeCost u;
  u.add(std::make_unique<BarrierTerm>(0.2));
  expect_gradient_matches_fd(u, 4, 103, 1e-5);
}

TEST(GradientFd, EnergyOnly) {
  Fixture f(1);
  CompositeCost u;
  u.add(std::make_unique<EnergyTerm>(f.tensors, 2.0, 0.3));
  expect_gradient_matches_fd(u, 4, 104, 1e-5);
}

TEST(GradientFd, EntropyOnly) {
  CompositeCost u;
  u.add(std::make_unique<EntropyTerm>(1.5));
  expect_gradient_matches_fd(u, 4, 105, 1e-5);
}

TEST(GradientFd, FullPaperCostTopology1) {
  Fixture f(1);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      f.tensors, f.model.topology().targets(), 1.0));
  u.add(std::make_unique<ExposureTerm>(4, 1.0));
  u.add(std::make_unique<BarrierTerm>(1e-4));
  expect_gradient_matches_fd(u, 4, 106, 1e-5);
}

TEST(GradientFd, FullPaperCostTopology3SkewedWeights) {
  Fixture f(3);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      f.tensors, f.model.topology().targets(), 1.0));
  u.add(std::make_unique<ExposureTerm>(4, 1e-4));
  u.add(std::make_unique<BarrierTerm>(1e-4));
  expect_gradient_matches_fd(u, 4, 107, 1e-5);
}

TEST(GradientFd, EverythingTogetherTopology4) {
  Fixture f(4);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      f.tensors, f.model.topology().targets(), 1.0));
  u.add(std::make_unique<ExposureTerm>(9, 0.01));
  u.add(std::make_unique<BarrierTerm>(1e-4));
  u.add(std::make_unique<EnergyTerm>(f.tensors, 0.5, 0.2));
  u.add(std::make_unique<EntropyTerm>(0.1));
  expect_gradient_matches_fd(u, 9, 108, 1e-4);
}

TEST(GradientFd, EventCaptureOnly) {
  CompositeCost u;
  u.add(std::make_unique<EventCaptureTerm>(
      std::vector<double>{0.5, 0.2, 0.2, 0.1}, 2.0, 1.5));
  expect_gradient_matches_fd(u, 4, 110, 1e-5);
}

TEST(GradientFd, EventCaptureShortWindowSparseRates) {
  // A zero rate exercises the lambda == 0 skip; the short window keeps the
  // exp() term far from saturation.
  CompositeCost u;
  u.add(std::make_unique<EventCaptureTerm>(
      std::vector<double>{1.0, 0.0, 0.0, 3.0}, 0.25, 2.0));
  expect_gradient_matches_fd(u, 4, 111, 1e-5);
}

TEST(GradientFd, MinimaxExposureOnly) {
  CompositeCost u;
  u.add(std::make_unique<MinimaxExposureTerm>(1.0, 4.0));
  expect_gradient_matches_fd(u, 4, 112, 1e-5);
}

TEST(GradientFd, MinimaxExposureStiffBeta) {
  // Near-hard max: the softmax concentrates on the argmax PoI and the
  // curvature grows with beta, so the FD tolerance is loosened a notch.
  CompositeCost u;
  u.add(std::make_unique<MinimaxExposureTerm>(0.7, 32.0));
  expect_gradient_matches_fd(u, 4, 113, 1e-4);
}

TEST(GradientFd, CaptureAndMinimaxWithFullCostTopology4) {
  Fixture f(4);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      f.tensors, f.model.topology().targets(), 1.0));
  u.add(std::make_unique<ExposureTerm>(9, 0.01));
  u.add(std::make_unique<BarrierTerm>(1e-4));
  u.add(std::make_unique<EventCaptureTerm>(
      std::vector<double>{0.3, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05},
      1.5, 1.0));
  u.add(std::make_unique<MinimaxExposureTerm>(0.5, 6.0));
  expect_gradient_matches_fd(u, 9, 114, 1e-4);
}

TEST(GradientFd, NewTermsOnSupportRestrictedChain) {
  // City-style support restriction: probability lives only on a ring
  // (self + both neighbors), and the FD direction stays on that support, as
  // the sparse descent path's directions do. The capture and minimax terms
  // need only (pi, Z), so their partials must be exact here too.
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
  const markov::TransitionMatrix p{std::move(m)};
  linalg::Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    // Row-sum-zero direction supported on the ring neighborhood.
    const std::size_t l = (i + n - 1) % n;
    const std::size_t r = (i + 1) % n;
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    v(i, l) = a;
    v(i, r) = b;
    v(i, i) = -a - b;
  }
  CompositeCost u;
  u.add(std::make_unique<EventCaptureTerm>(
      std::vector<double>{0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05}, 2.0,
      1.0));
  u.add(std::make_unique<MinimaxExposureTerm>(0.8, 5.0));
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto grad = cost_gradient(u, chain);
  const double analytic = linalg::frobenius_dot(grad, v);
  const double fd = directional_fd(u, p, v, 1e-7);
  const double scale = std::max({std::abs(analytic), std::abs(fd), 1.0});
  EXPECT_NEAR(analytic, fd, 1e-5 * scale);
}

TEST(GradientFd, ProjectedGradientMatchesForProjectedDirections) {
  // For row-sum-zero V, <Pi[grad], V> == <grad, V> (Pi is the orthogonal
  // projector onto that subspace).
  Fixture f(1);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      f.tensors, f.model.topology().targets(), 1.0));
  u.add(std::make_unique<ExposureTerm>(4, 1.0));
  util::Rng rng(109);
  const auto p = test::random_positive_chain(4, rng);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto v = test::random_direction(4, rng);
  const auto grad = cost_gradient(u, chain);
  const auto proj = projected_cost_gradient(u, chain);
  EXPECT_NEAR(linalg::frobenius_dot(grad, v), linalg::frobenius_dot(proj, v),
              1e-10);
}

}  // namespace
}  // namespace mocos::cost
