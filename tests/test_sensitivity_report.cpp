#include "src/cost/sensitivity_report.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/optimizer.hpp"
#include "src/cost/metrics.hpp"
#include "src/cost/projection.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/sensing/travel_model.hpp"
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

TEST(MetricSensitivity, MatchesFiniteDifferences) {
  Fixture f(3);
  const auto targets = f.model.topology().targets();
  util::Rng rng(11);
  for (int t = 0; t < 5; ++t) {
    const auto p = test::random_positive_chain(4, rng);
    const auto chain = test::unwrap(markov::try_analyze_chain(p));
    const auto sens = metric_sensitivity(chain, f.tensors, targets);
    const auto v = test::random_direction(4, rng);

    const double h = 1e-6;
    linalg::Matrix plus(4, 4), minus(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j) {
        plus(i, j) = p(i, j) + h * v(i, j);
        minus(i, j) = p(i, j) - h * v(i, j);
      }
    const auto metrics_at = [&](const linalg::Matrix& m) {
      return compute_metrics(
          test::unwrap(markov::try_analyze_chain(markov::TransitionMatrix(m))),
          f.tensors, targets);
    };
    const auto mp = metrics_at(plus);
    const auto mm = metrics_at(minus);

    const double fd_dc = (mp.delta_c - mm.delta_c) / (2.0 * h);
    const double fd_eb = (mp.e_bar - mm.e_bar) / (2.0 * h);
    EXPECT_NEAR(linalg::frobenius_dot(sens.delta_c, v), fd_dc,
                1e-4 * std::max(1.0, std::abs(fd_dc)))
        << "trial " << t;
    EXPECT_NEAR(linalg::frobenius_dot(sens.e_bar, v), fd_eb,
                1e-4 * std::max(1.0, std::abs(fd_eb)))
        << "trial " << t;
  }
}

TEST(MetricSensitivity, GradientsLieInFeasibleSubspace) {
  Fixture f(1);
  util::Rng rng(12);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  const auto sens =
      metric_sensitivity(chain, f.tensors, f.model.topology().targets());
  EXPECT_NEAR(max_abs_row_sum(sens.delta_c), 0.0, 1e-10);
  EXPECT_NEAR(max_abs_row_sum(sens.e_bar), 0.0, 1e-10);
}

TEST(MetricSensitivity, AntagonisticAtTradeoffOptimum) {
  // The defining tension of the paper: at an (interior) optimum of the
  // weighted cost, the combined gradient vanishes, so grad(DeltaC) and
  // grad(E-bar) must point in opposing directions — improving one metric
  // necessarily worsens the other.
  const auto problem = test::paper_problem(3, 1.0, 1e-3);
  core::OptimizerOptions opts;
  opts.max_iterations = 600;
  opts.stall_limit = 250;
  opts.keep_trace = false;
  const auto outcome = core::CoverageOptimizer(problem, opts).run();

  const auto chain = test::unwrap(markov::try_analyze_chain(outcome.p));
  const auto sens = metric_sensitivity(chain, problem.tensors(),
                                       problem.targets());
  const double alignment = linalg::frobenius_dot(sens.delta_c, sens.e_bar);
  const double scale =
      std::sqrt(linalg::frobenius_dot(sens.delta_c, sens.delta_c) *
                linalg::frobenius_dot(sens.e_bar, sens.e_bar));
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(alignment / scale, -0.5)
      << "gradients should be strongly anti-aligned at the optimum";
}

}  // namespace
}  // namespace mocos::cost
