#include "src/sensing/travel_model.hpp"
#include "src/cost/information_term.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "src/cli/cli.hpp"
#include "src/core/optimizer.hpp"
#include "src/cost/composite_cost.hpp"
#include "src/cost/gradient.hpp"
#include "src/cost/metrics.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

struct Fixture {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  explicit Fixture(int topo)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {}
};

TEST(InformationTerm, CaptureRateIsRateWeightedCoverageShares) {
  Fixture f(1);
  util::Rng rng(55);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  const std::vector<double> rates{2.0, 1.0, 0.5, 0.0};
  InformationCaptureTerm term(f.tensors, rates, 1.0);
  const auto shares = coverage_shares(chain, f.tensors);
  double expect = 0.0;
  for (std::size_t i = 0; i < 4; ++i) expect += rates[i] * shares[i];
  EXPECT_NEAR(term.capture_rate(chain), expect, 1e-12);
}

TEST(InformationTerm, ValueIsNegativeGammaTimesCapture) {
  Fixture f(1);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  InformationCaptureTerm term(f.tensors, {1.0, 1.0, 1.0, 1.0}, 3.0);
  EXPECT_NEAR(term.value(chain), -3.0 * term.capture_rate(chain), 1e-14);
  EXPECT_LT(term.value(chain), 0.0);
}

TEST(InformationTerm, GradientMatchesFiniteDifference) {
  Fixture f(3);
  CompositeCost u;
  u.add(std::make_unique<InformationCaptureTerm>(
      f.tensors, std::vector<double>{1.5, 0.2, 0.0, 2.0}, 1.0));
  util::Rng rng(56);
  for (int t = 0; t < 6; ++t) {
    const auto p = test::random_positive_chain(4, rng);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const auto v = test::random_direction(4, rng);
    const auto grad = cost_gradient(u, chain);
    const double analytic = linalg::frobenius_dot(grad, v);
    const double h = 1e-7;
    linalg::Matrix plus(4, 4), minus(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j) {
        plus(i, j) = p(i, j) + h * v(i, j);
        minus(i, j) = p(i, j) - h * v(i, j);
      }
    const double fd = (u.value(markov::TransitionMatrix(plus)) -
                       u.value(markov::TransitionMatrix(minus))) /
                      (2.0 * h);
    EXPECT_NEAR(analytic, fd, 1e-5 * std::max(1.0, std::abs(fd)))
        << "trial " << t;
  }
}

TEST(InformationTerm, StayingAtHighRatePoiMaximizesCapture) {
  // A chain that lingers at the (only) high-rate PoI captures more.
  Fixture f(1);
  const std::vector<double> rates{10.0, 0.0, 0.0, 0.0};
  InformationCaptureTerm term(f.tensors, rates, 1.0);

  linalg::Matrix lazy(4, 4, 0.1 / 3.0);
  for (std::size_t j = 0; j < 4; ++j) lazy(0, j) = (j == 0) ? 0.9 : 0.1 / 3.0;
  for (std::size_t i = 1; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) lazy(i, j) = (j == 0) ? 0.9 : 0.1 / 3.0;
  }
  const auto camp =
      test::unwrap(markov::try_analyze_chain(markov::TransitionMatrix(lazy)));
  const auto uniform = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EXPECT_GT(term.capture_rate(camp), term.capture_rate(uniform));
}

TEST(InformationTerm, RejectsBadArguments) {
  Fixture f(1);
  EXPECT_THROW(
      InformationCaptureTerm(f.tensors, std::vector<double>{1.0}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(InformationCaptureTerm(
                   f.tensors, std::vector<double>{1.0, 1.0, 1.0, -1.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(InformationCaptureTerm(
                   f.tensors, std::vector<double>{1.0, 1.0, 1.0, 1.0}, 0.0),
               std::invalid_argument);
}

// city:36:3 restricted to support_radius 1.6, with 36 explicit event rates
// (the config CI's information-on-support smoke step runs).
core::Problem support_restricted_problem() {
  std::string rates;
  for (std::size_t i = 0; i < 36; ++i) {
    if (i > 0) rates += ',';
    rates += std::to_string(1 + i % 4);
  }
  return cli::build_problem(util::Config::parse_string(
      "topology = city:36:3\nradius = 0.1\nsupport_radius = 1.6\n"
      "event_rates = " + rates + "\n"));
}

TEST(InformationTerm, GradientMatchesFiniteDifferenceOnSupport) {
  const core::Problem problem = support_restricted_problem();
  const auto& support = problem.support();
  ASSERT_EQ(support.size(), 36u);
  // coverage + exposure + barrier + information capture.
  EXPECT_EQ(problem.make_cost().num_terms(), 4u);

  CompositeCost u;
  u.add(std::make_unique<InformationCaptureTerm>(
      problem.tensors(), problem.weights().event_rates,
      problem.weights().information_gamma));
  // Chains and directions stay on the support, as the descent's do: P has
  // structural zeros off it and V is row-sum-zero on it.
  util::Rng rng(57);
  for (int t = 0; t < 3; ++t) {
    linalg::Matrix m(36, 36);
    linalg::Matrix v(36, 36);
    for (std::size_t i = 0; i < 36; ++i) {
      double sum = 0.0;
      double mean = 0.0;
      for (std::size_t j : support[i]) {
        m(i, j) = 0.05 + rng.uniform();
        sum += m(i, j);
        v(i, j) = rng.uniform(-1.0, 1.0);
        mean += v(i, j);
      }
      mean /= static_cast<double>(support[i].size());
      for (std::size_t j : support[i]) {
        m(i, j) /= sum;
        v(i, j) -= mean;
      }
    }
    const markov::TransitionMatrix p{m};
    const double h = 1e-7;
    linalg::Matrix plus(36, 36), minus(36, 36);
    for (std::size_t i = 0; i < 36; ++i)
      for (std::size_t j = 0; j < 36; ++j) {
        plus(i, j) = m(i, j) + h * v(i, j);
        minus(i, j) = m(i, j) - h * v(i, j);
      }
    const double fd = (u.value(markov::TransitionMatrix(plus)) -
                       u.value(markov::TransitionMatrix(minus))) /
                      (2.0 * h);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const double analytic = linalg::frobenius_dot(cost_gradient(u, chain), v);
    EXPECT_NEAR(analytic, fd, 1e-5 * std::max(1.0, std::abs(fd)))
        << "trial " << t;
  }
}

TEST(InformationTerm, AdaptiveRunOnSupportKeepsOffSupportZeros) {
  const core::Problem problem = support_restricted_problem();
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 20;
  const core::OptimizationOutcome outcome =
      core::CoverageOptimizer(problem, opts).run();
  EXPECT_NE(outcome.stop_reason, descent::StopReason::kNumericalFailure);
  EXPECT_GT(outcome.iterations, 0u);
  const auto& support = problem.support();
  for (std::size_t i = 0; i < 36; ++i)
    for (std::size_t j = 0; j < 36; ++j) {
      const bool on_support =
          std::binary_search(support[i].begin(), support[i].end(), j);
      if (on_support)
        EXPECT_GT(outcome.p(i, j), 0.0) << i << "," << j;
      else
        EXPECT_EQ(outcome.p(i, j), 0.0) << i << "," << j;
    }
}

TEST(InformationTerm, ChainSizeMismatchThrows) {
  Fixture f(1);
  InformationCaptureTerm term(f.tensors, {1.0, 1.0, 1.0, 1.0}, 1.0);
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EXPECT_THROW(term.value(chain), std::invalid_argument);
  Partials out(3);
  EXPECT_THROW(term.accumulate_partials(chain, out), std::invalid_argument);
}

}  // namespace
}  // namespace mocos::cost
