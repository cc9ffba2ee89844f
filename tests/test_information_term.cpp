#include "src/sensing/travel_model.hpp"
#include "src/cost/information_term.hpp"

#include <gtest/gtest.h>

#include <memory>

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
