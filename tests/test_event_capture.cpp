#include "src/sim/event_capture.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "src/core/optimizer.hpp"
#include "src/cost/composite_cost.hpp"
#include "src/cost/event_capture_term.hpp"
#include "src/cost/metrics.hpp"
#include "src/descent/cached_cost.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/sensing/coverage_tensors.hpp"
#include "src/sensing/travel_model.hpp"
#include "tests/helpers.hpp"

namespace mocos::sim {
namespace {

sensing::TravelModel model1() {
  return sensing::TravelModel(geometry::paper_topology(1), 1.0, 1.0, 0.25);
}

TEST(EventCapture, ValidatesInput) {
  EventCaptureConfig bad;
  bad.num_transitions = 0;
  EXPECT_THROW(EventCaptureSimulator{bad}, std::invalid_argument);
  EventCaptureConfig bad2;
  bad2.event_duration = -1.0;
  EXPECT_THROW(EventCaptureSimulator{bad2}, std::invalid_argument);

  const auto model = model1();
  EventCaptureSimulator sim;
  util::Rng rng(1);
  EXPECT_THROW(sim.run(model, markov::TransitionMatrix::uniform(3),
                       {1.0, 1.0, 1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(sim.run(model, markov::TransitionMatrix::uniform(4),
                       {1.0, 1.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(sim.run(model, markov::TransitionMatrix::uniform(4),
                       {1.0, 1.0, 1.0, -1.0}, rng),
               std::invalid_argument);
}

TEST(EventCapture, InstantEventsCaptureAtCoverageShareRate) {
  // With instantaneous events, P(capture) = fraction of time covered = C̄_i.
  const auto model = model1();
  sensing::CoverageTensors tensors(model);
  util::Rng rng(2);
  const auto p = test::random_positive_chain(4, rng, 0.05);
  const auto analytic = cost::coverage_shares(
      test::unwrap(markov::try_analyze_chain(p)), tensors);

  EventCaptureConfig cfg;
  cfg.num_transitions = 60000;
  EventCaptureSimulator sim(cfg);
  const auto res = sim.run(model, p, {3.0, 3.0, 3.0, 3.0}, rng);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(res.events[i], 1000u);
    EXPECT_NEAR(res.capture_fraction[i], analytic[i], 0.02) << "PoI " << i;
  }
}

TEST(EventCapture, LongerEventsAreEasierToCatch) {
  const auto model = model1();
  util::Rng rng1(3), rng2(3);
  const auto p = markov::TransitionMatrix::uniform(4);
  EventCaptureConfig instant;
  instant.num_transitions = 30000;
  EventCaptureConfig durable = instant;
  durable.event_duration = 5.0;
  const auto res_i =
      EventCaptureSimulator(instant).run(model, p, {2.0, 2.0, 2.0, 2.0}, rng1);
  const auto res_d =
      EventCaptureSimulator(durable).run(model, p, {2.0, 2.0, 2.0, 2.0}, rng2);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_GT(res_d.capture_fraction[i], res_i.capture_fraction[i]);
}

TEST(EventCapture, ZeroRatePoiGetsNoEvents) {
  const auto model = model1();
  util::Rng rng(4);
  EventCaptureConfig cfg;
  cfg.num_transitions = 5000;
  const auto res = EventCaptureSimulator(cfg).run(
      model, markov::TransitionMatrix::uniform(4), {0.0, 1.0, 0.0, 1.0}, rng);
  EXPECT_EQ(res.events[0], 0u);
  EXPECT_EQ(res.events[2], 0u);
  EXPECT_GT(res.events[1], 0u);
}

TEST(EventCapture, CaptureRateIsRateWeightedSum) {
  EventCaptureResult r;
  r.capture_fraction = {0.5, 0.25};
  EXPECT_DOUBLE_EQ(r.capture_rate({2.0, 4.0}), 2.0);
  EXPECT_THROW(r.capture_rate({1.0}), std::invalid_argument);
}

TEST(EventCapture, OptimizingInformationTermRaisesCaptureRate) {
  // End-to-end: a chain optimized with event rates (skewed to PoI 0)
  // captures more rate-weighted events than the uniform chain.
  core::Weights w;
  w.alpha = 0.0;
  w.beta = 0.0;
  w.event_rates = {10.0, 0.5, 0.5, 0.5};
  w.information_gamma = 1.0;
  core::Problem problem(geometry::paper_topology(1), core::Physics{}, w);
  core::OptimizerOptions opts;
  opts.max_iterations = 300;
  opts.keep_trace = false;
  opts.stall_limit = 150;
  const auto outcome = core::CoverageOptimizer(problem, opts).run();

  EventCaptureConfig cfg;
  cfg.num_transitions = 40000;
  util::Rng rng1(5), rng2(5);
  const auto res_opt = EventCaptureSimulator(cfg).run(
      problem.model(), outcome.p, w.event_rates, rng1);
  const auto res_uni = EventCaptureSimulator(cfg).run(
      problem.model(), markov::TransitionMatrix::uniform(4), w.event_rates,
      rng2);
  EXPECT_GT(res_opt.capture_rate(w.event_rates),
            res_uni.capture_rate(w.event_rates));
}

/// A term that reads Z without declaring needs_fundamental().
class UndeclaredZTerm final : public cost::CostTerm {
 public:
  std::string_view name() const override { return "undeclared_z"; }
  double value(const markov::ChainAnalysis& chain) const override {
    return chain.fundamental()(0, 0);
  }
  void accumulate_partials(const markov::ChainAnalysis&,
                           cost::Partials&) const override {}
};

TEST(EventCapture, TermOnPiOnlyAnalysisFailsLoudly) {
  // Event capture reads z_ii. Reading it off a π-only analysis is a
  // programming error, reported as such rather than as a missing index.
  util::Rng rng(6);
  const auto p = test::random_positive_chain(4, rng);
  const auto pi_only = test::unwrap(markov::try_analyze_chain(
      p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary));
  const cost::EventCaptureTerm term({0.4, 0.3, 0.2, 0.1}, 2.0, 1.0);
  EXPECT_THROW(static_cast<void>(term.value(pi_only)),
               markov::MissingFundamentalError);
  cost::Partials partials(4);
  EXPECT_THROW(term.accumulate_partials(pi_only, partials),
               markov::MissingFundamentalError);

  // A term that reads Z without declaring it gets a π-only analysis from the
  // probe evaluator; the error propagates instead of scoring the probe
  // +infinity, which would read as "no descent step".
  cost::CompositeCost u;
  u.add(std::make_unique<UndeclaredZTerm>());
  descent::CachedCostEvaluator evaluator(u);
  EXPECT_THROW(static_cast<void>(evaluator.cost_at(p)),
               markov::MissingFundamentalError);
}

TEST(EventCapture, CaptureAndMinimaxDescendUnderAdaptive) {
  // Capture declares Z, so every probe of this cost is a full analysis, and
  // the adaptive descent lowers the cost from the uniform start.
  core::Weights w;
  w.capture_weight = 1.0;
  w.capture_duration = 2.0;
  w.lambda_skew = 1.0;
  w.minimax_weight = 0.5;
  w.smoothmax_beta = 4.0;
  const core::Problem problem(geometry::paper_topology(3), core::Physics{}, w);
  core::OptimizerOptions opts;
  opts.algorithm = core::Algorithm::kAdaptive;
  opts.max_iterations = 40;
  const auto outcome = core::CoverageOptimizer(problem, opts).run();
  const double start_cost =
      problem.make_cost().value(markov::TransitionMatrix::uniform(4));
  EXPECT_NE(outcome.stop_reason, descent::StopReason::kNumericalFailure);
  EXPECT_GT(outcome.iterations, 0u);
  EXPECT_LT(outcome.penalized_cost, start_cost);
  EXPECT_EQ(outcome.chain_stats.fundamental_solves,
            outcome.chain_stats.full_solves);
}

}  // namespace
}  // namespace mocos::sim
