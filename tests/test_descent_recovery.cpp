#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "src/cost/barrier_term.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/descent/initializers.hpp"
#include "src/descent/perturbed_descent.hpp"
#include "src/descent/steepest_descent.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/sensing/travel_model.hpp"
#include "src/util/fault_injection.hpp"
#include "src/util/status.hpp"
#include "tests/helpers.hpp"

namespace mocos::descent {
namespace {

namespace fault = util::fault;

struct Fixture {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  cost::CompositeCost u;

  explicit Fixture(int topo = 1, double alpha = 1.0, double beta = 0.5)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {
    u.add(std::make_unique<cost::CoverageDeviationTerm>(
        tensors, model.topology().targets(), alpha));
    u.add(std::make_unique<cost::ExposureTerm>(model.num_pois(), beta));
    u.add(std::make_unique<cost::BarrierTerm>(1e-4));
  }

  // Deterministic asymmetric start: the uniform matrix is near-critical on
  // the symmetric paper topologies (gradient ~ 0 stops the run at once),
  // which would never reach the armed fault window.
  markov::TransitionMatrix start() const {
    util::Rng rng(7);
    return test::random_positive_chain(model.num_pois(), rng);
  }
};

struct DescentRecoveryTest : ::testing::Test {
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

DescentConfig line_search_config(std::size_t iters) {
  DescentConfig cfg;
  cfg.step_policy = StepPolicy::kLineSearch;
  cfg.max_iterations = iters;
  return cfg;
}

// --- The shared ladder, driven through both drivers -----------------------

enum class Driver { kSteepest, kPerturbed };
constexpr Driver kDrivers[] = {Driver::kSteepest, Driver::kPerturbed};

const char* name(Driver d) {
  return d == Driver::kSteepest ? "steepest" : "perturbed";
}

// What the ladder tests read from either driver's result: the reported
// iterate (the perturbed driver's best-seen one) and its cost.
struct Outcome {
  markov::TransitionMatrix p;
  double cost;
  StopReason reason;
  RecoveryLog recovery;
};

Outcome run_driver(Driver d, const Fixture& f,
                   const markov::TransitionMatrix& start, std::size_t iters) {
  if (d == Driver::kSteepest) {
    DescentResult r =
        SteepestDescent(f.u, line_search_config(iters)).run(start);
    return {std::move(r.p), r.cost, r.reason, std::move(r.recovery)};
  }
  PerturbedConfig cfg;
  cfg.base.step_policy = StepPolicy::kLineSearch;
  cfg.max_iterations = iters;
  cfg.polish_iterations = 0;  // keep the fault accounting to one phase
  util::Rng rng(11);
  PerturbedResult r = PerturbedDescent(f.u, cfg).run(start, rng);
  return {std::move(r.best_p), r.best_cost, r.reason, std::move(r.recovery)};
}

TEST_F(DescentRecoveryTest, TransientNaNGradientIsRolledBack) {
  Fixture f;
  const auto start = f.start();
  for (Driver d : kDrivers) {
    SCOPED_TRACE(name(d));
    // Poison exactly one mid-descent gradient evaluation.
    fault::ScopedFault guard(fault::Site::kGradient, /*fire_at=*/2, 1);
    const Outcome result = run_driver(d, f, start, 40);

    EXPECT_TRUE(std::isfinite(result.cost));
    EXPECT_NE(result.reason, StopReason::kNumericalFailure);
    ASSERT_EQ(result.recovery.count(RecoveryAction::kRollback), 1u);
    EXPECT_EQ(result.recovery.count(RecoveryAction::kStepBackoff), 1u);
    EXPECT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 0u);
    EXPECT_EQ(result.recovery.events()[0].cause,
              util::StatusCode::kNonFiniteValue);
    // The rescue still made progress: final cost beats the start cost.
    EXPECT_LT(result.cost, safe_cost(f.u, start));
  }
}

TEST_F(DescentRecoveryTest, PersistentNaNGradientAbandonsGracefully) {
  Fixture f;
  const auto start = f.start();
  const double start_cost = safe_cost(f.u, start);
  for (Driver d : kDrivers) {
    SCOPED_TRACE(name(d));
    fault::ScopedFault guard(fault::Site::kGradient, 0,
                             1000000);  // every evaluation fails
    const Outcome result = run_driver(d, f, start, 100);

    EXPECT_EQ(result.reason, StopReason::kNumericalFailure);
    // No NaN leaks: the result carries the last good (for the perturbed
    // driver, best-seen) iterate and its cost. The steepest driver reports
    // the start re-projected by the widened margin, hence its looser bound.
    EXPECT_TRUE(std::isfinite(result.cost));
    EXPECT_NEAR(result.cost, start_cost,
                d == Driver::kSteepest ? 1e-6 : 1e-9);
    ASSERT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 1u);
    // Budget of 6: six rollbacks + backoffs before giving up, margin
    // widening kicking in from the second consecutive failure.
    EXPECT_EQ(result.recovery.count(RecoveryAction::kRollback), 6u);
    EXPECT_EQ(result.recovery.count(RecoveryAction::kStepBackoff), 6u);
    EXPECT_GE(result.recovery.count(RecoveryAction::kMarginWidened), 1u);
    EXPECT_NE(result.recovery.summary().find("abandoned"), std::string::npos);
    for (std::size_t i = 0; i < result.p.size(); ++i)
      for (std::size_t j = 0; j < result.p.size(); ++j)
        EXPECT_TRUE(std::isfinite(result.p(i, j)));
  }
}

TEST_F(DescentRecoveryTest, SingularFactorizationFallsBackToPowerIteration) {
  Fixture f;
  const auto start = f.start();
  for (Driver d : kDrivers) {
    SCOPED_TRACE(name(d));
    // A direct-solve fault that never clears: iteration 0's chain analysis
    // fails, the loop demotes to power iteration and the run completes.
    // Iteration 0's analysis is a memo hit of the start-cost evaluation, so
    // the kStationary site is consulted by CachedCostEvaluator::analyze
    // itself; the demotion is one-way, so no later analysis consults it and
    // exactly one failure is injected.
    fault::ScopedFault guard(fault::Site::kStationary, 0, 1000000);
    const Outcome result = run_driver(d, f, start, 30);

    EXPECT_TRUE(std::isfinite(result.cost));
    EXPECT_NE(result.reason, StopReason::kNumericalFailure);
    EXPECT_EQ(result.recovery.count(RecoveryAction::kPowerIterationFallback),
              1u);
    EXPECT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 0u);
  }
}

// --- Steepest-driver specifics ----------------------------------------------

TEST_F(DescentRecoveryTest, CleanRunLeavesRecoveryLogEmpty) {
  Fixture f;
  const auto result = SteepestDescent(f.u, line_search_config(30))
                          .run(f.start());
  EXPECT_TRUE(result.recovery.empty());
  EXPECT_NE(result.reason, StopReason::kNumericalFailure);
}

TEST_F(DescentRecoveryTest, SingularProbeFactorizationIsAbsorbed) {
  Fixture f;
  // A single LU failure inside a line-search probe (invocation 0 is the
  // start evaluation's resolvent factorization; later invocations are probe
  // rebuilds) surfaces as an infinite probe cost, which the search simply
  // avoids: no ladder involvement, the run completes normally.
  fault::ScopedFault guard(fault::Site::kLuFactor, 2, 1);
  const auto result = SteepestDescent(f.u, line_search_config(30))
                          .run(f.start());

  EXPECT_TRUE(std::isfinite(result.cost));
  EXPECT_NE(result.reason, StopReason::kNumericalFailure);
  EXPECT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 0u);
}

TEST_F(DescentRecoveryTest, PersistentSingularFactorizationAbandons) {
  Fixture f;
  // Every LU factorization after the start evaluation fails: power
  // iteration rescues the stationary solve but the fundamental matrix still
  // needs a factorization, so the ladder must eventually stop with a
  // structured failure, not a throw.
  fault::ScopedFault guard(fault::Site::kLuFactor, 2, 1000000);
  const auto result = SteepestDescent(f.u, line_search_config(100))
                          .run(f.start());

  EXPECT_EQ(result.reason, StopReason::kNumericalFailure);
  EXPECT_TRUE(std::isfinite(result.cost));
  EXPECT_EQ(result.recovery.count(RecoveryAction::kPowerIterationFallback),
            1u);
  ASSERT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 1u);
  EXPECT_EQ(result.recovery.events().back().cause,
            util::StatusCode::kSingularMatrix);
}

TEST_F(DescentRecoveryTest, ZeroRetryBudgetStopsOnFirstFailure) {
  Fixture f;
  DescentConfig cfg = line_search_config(40);
  cfg.recovery_retry_budget = 0;
  fault::ScopedFault guard(fault::Site::kGradient, 2, 1);
  const auto result =
      SteepestDescent(f.u, cfg).run(f.start());

  EXPECT_EQ(result.reason, StopReason::kNumericalFailure);
  EXPECT_TRUE(std::isfinite(result.cost));
  ASSERT_EQ(result.recovery.size(), 1u);  // just the kAbandoned record
  EXPECT_EQ(result.recovery.events()[0].action, RecoveryAction::kAbandoned);
}

TEST_F(DescentRecoveryTest, InjectedLineSearchRejectionStopsAtCriticalPoint) {
  Fixture f;
  // A forced Δt* = 0 is not a numerical failure — it is the paper's
  // critical-point termination, and must keep reporting kNoDescentStep.
  fault::ScopedFault guard(fault::Site::kLineSearch, 3, 1);
  const auto result = SteepestDescent(f.u, line_search_config(40))
                          .run(f.start());
  EXPECT_EQ(result.reason, StopReason::kNoDescentStep);
  EXPECT_TRUE(result.recovery.empty());
}

// --- Perturbed-driver specifics ---------------------------------------------

PerturbedConfig perturbed_config(std::size_t iters) {
  PerturbedConfig cfg;
  cfg.base.step_policy = StepPolicy::kLineSearch;
  cfg.max_iterations = iters;
  cfg.polish_iterations = 0;  // keep the fault accounting to one phase
  return cfg;
}

TEST_F(DescentRecoveryTest, PerturbedTransientNaNGradientRecovers) {
  Fixture f;
  util::Rng rng(11);
  fault::ScopedFault guard(fault::Site::kGradient, 4, 1);
  const auto result = PerturbedDescent(f.u, perturbed_config(30))
                          .run(f.start(), rng);

  EXPECT_TRUE(std::isfinite(result.best_cost));
  EXPECT_NE(result.reason, StopReason::kNumericalFailure);
  EXPECT_EQ(result.recovery.count(RecoveryAction::kRollback), 1u);
  EXPECT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 0u);
}

TEST_F(DescentRecoveryTest, PerturbedPersistentNaNGradientAbandons) {
  Fixture f;
  util::Rng rng(12);
  const auto start = f.start();
  fault::ScopedFault guard(fault::Site::kGradient, 0, 1000000);
  const auto result =
      PerturbedDescent(f.u, perturbed_config(50)).run(start, rng);

  EXPECT_EQ(result.reason, StopReason::kNumericalFailure);
  // The best-seen iterate (here: the start) is still returned, cost finite.
  EXPECT_TRUE(std::isfinite(result.best_cost));
  EXPECT_NEAR(result.best_cost, safe_cost(f.u, start), 1e-9);
  EXPECT_EQ(result.recovery.count(RecoveryAction::kAbandoned), 1u);
  EXPECT_EQ(result.recovery.count(RecoveryAction::kRollback), 6u);
}

TEST_F(DescentRecoveryTest, PerturbedSingularDirectSolveFallsBack) {
  Fixture f;
  util::Rng rng(13);
  // The kStationary site only affects the direct solver, so the fallback
  // rescues the whole run even though the fault never clears.
  fault::ScopedFault guard(fault::Site::kStationary, 0, 1000000);
  const auto result = PerturbedDescent(f.u, perturbed_config(30))
                          .run(f.start(), rng);

  EXPECT_TRUE(std::isfinite(result.best_cost));
  EXPECT_NE(result.reason, StopReason::kNumericalFailure);
  EXPECT_EQ(result.recovery.count(RecoveryAction::kPowerIterationFallback),
            1u);
}

TEST_F(DescentRecoveryTest, RecoveryLogSummaryReadsLikeAReport) {
  RecoveryLog log;
  log.record(3, RecoveryAction::kRollback, util::StatusCode::kNonFiniteValue,
             "gradient has NaN");
  log.record(3, RecoveryAction::kStepBackoff,
             util::StatusCode::kNonFiniteValue, "step scale 0.25");
  log.record(4, RecoveryAction::kRollback, util::StatusCode::kNonFiniteValue,
             "gradient has NaN");
  const std::string s = log.summary();
  EXPECT_NE(s.find("rollback x2"), std::string::npos) << s;
  EXPECT_NE(s.find("step-backoff x1"), std::string::npos) << s;
  EXPECT_EQ(log.count(RecoveryAction::kAbandoned), 0u);
}

}  // namespace
}  // namespace mocos::descent
