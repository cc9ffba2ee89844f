#include "src/sensing/travel_model.hpp"
#include "src/descent/steepest_descent.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/cost/barrier_term.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/descent/cached_cost.hpp"
#include "src/descent/descent_loop.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/markov/ergodicity.hpp"
#include "tests/helpers.hpp"

namespace mocos::descent {
namespace {

struct Fixture {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  cost::CompositeCost u;

  Fixture(int topo, double alpha, double beta, double eps = 1e-4)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {
    if (alpha != 0.0)
      u.add(std::make_unique<cost::CoverageDeviationTerm>(
          tensors, model.topology().targets(), alpha));
    if (beta != 0.0)
      u.add(std::make_unique<cost::ExposureTerm>(model.num_pois(), beta));
    u.add(std::make_unique<cost::BarrierTerm>(eps));
  }
};

TEST(ApplyStep, PreservesStochasticity) {
  util::Rng rng(1);
  const auto p = test::random_positive_chain(4, rng);
  const auto v = test::random_direction(4, rng);
  const auto q = apply_step(p, test::on_pattern(p, v), 0.01, 1e-12);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_GE(q(i, j), 0.0);
      s += q(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(ApplyStep, ZeroStepIsIdentity) {
  util::Rng rng(2);
  const auto p = test::random_positive_chain(3, rng);
  const auto v = test::random_direction(3, rng);
  EXPECT_TRUE(linalg::approx_equal(
      apply_step(p, test::on_pattern(p, v), 0.0, 1e-12).to_dense(),
      p.to_dense(), 1e-15));
}

TEST(ApplyStep, ClampsAtMargin) {
  const auto p = markov::TransitionMatrix::uniform(2);
  linalg::Matrix v{{-1.0, 1.0}, {0.0, 0.0}};
  const auto q = apply_step(p, test::on_pattern(p, v), 10.0,
                            0.01);  // would overshoot hard
  EXPECT_GE(q(0, 0), 0.009);
  EXPECT_LE(q(0, 1), 0.991);
}

TEST(ApplyStep, ReusedTargetMatchesFreshStepBitForBit) {
  // Two chains on one pattern object; the second keeps an explicit zero at
  // (0, 2) that the step must leave exactly zero. Stepping it into a target
  // that still holds the first chain's step must give apply_step's bits,
  // the zero included.
  const linalg::Pattern pattern = linalg::SparsityPattern::full(3, 3);
  const markov::TransitionMatrix busy(linalg::SparseMatrix(
      pattern, {0.2, 0.3, 0.5, 0.1, 0.6, 0.3, 0.4, 0.4, 0.2}));
  const markov::TransitionMatrix closed(linalg::SparseMatrix(
      pattern, {0.7, 0.3, 0.0, 0.1, 0.6, 0.3, 0.4, 0.4, 0.2}));
  const linalg::SparseMatrix v(
      pattern, {-0.2, 0.2, 0.0, 0.1, -0.3, 0.2, 0.05, 0.05, -0.1});
  markov::TransitionMatrix target = busy;
  apply_step_into(busy, v, 0.3, 1e-12, target);
  ASSERT_GT(target(0, 2), 0.0);
  apply_step_into(closed, v, 0.3, 1e-12, target);
  const markov::TransitionMatrix fresh = apply_step(closed, v, 0.3, 1e-12);
  EXPECT_EQ(target, fresh);
  EXPECT_EQ(target.csr().values()[2], 0.0);
  EXPECT_EQ(target.csr().shared_pattern(), pattern);
}

TEST(DescentLoopProbe, EqualsCostOfSteppedMatrix) {
  // probe(direction, t) is cost_at(stepped(direction, t)) bit for bit,
  // though it reuses one candidate and refills the memo in place.
  Fixture f(4, 1.0, 1.0);
  util::Rng rng(9);
  const auto start = test::random_positive_chain(9, rng);
  const linalg::SparseMatrix direction =
      test::on_pattern(start, test::random_direction(9, rng));
  const DescentConfig config;
  DescentLoop loop(DescentLoop::Driver::kSteepest, f.u, config, false,
                   start);
  CachedCostEvaluator reference(f.u);
  const double max_step = loop.max_step(direction);
  ASSERT_GT(max_step, 0.0);
  for (const double share : {0.9, 0.1, 0.5, 0.5, 1.0, 0.0}) {
    const double t = share * max_step;
    EXPECT_EQ(loop.probe(direction, t),
              reference.cost_at(loop.stepped(direction, t)))
        << "t=" << t;
  }
}

TEST(SafeCost, InfeasibleIsInfinity) {
  Fixture f(1, 1.0, 1.0);
  // A reducible chain makes the analysis singular -> +inf, not a throw.
  linalg::Matrix m{{1.0, 0.0, 0.0, 0.0},
                   {0.0, 1.0, 0.0, 0.0},
                   {0.0, 0.0, 1.0, 0.0},
                   {0.0, 0.0, 0.0, 1.0}};
  EXPECT_TRUE(std::isinf(safe_cost(f.u, markov::TransitionMatrix(m))));
}

TEST(BasicDescent, CostDecreasesMonotonically) {
  Fixture f(2, 1.0, 0.0);
  DescentConfig cfg;
  cfg.step_policy = StepPolicy::kConstant;
  cfg.constant_step = 1e-4;
  cfg.max_iterations = 200;
  SteepestDescent driver(f.u, cfg);
  const auto res = driver.run(uniform_start(4));
  ASSERT_GE(res.trace.size(), 2u);
  const auto series = res.trace.cost_series();
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_LE(series[i], series[i - 1] + 1e-9) << "iteration " << i;
}

TEST(BasicDescent, ImprovesOnUniformStart) {
  Fixture f(2, 1.0, 0.0);
  DescentConfig cfg;
  cfg.step_policy = StepPolicy::kConstant;
  cfg.constant_step = 1e-4;
  cfg.max_iterations = 500;
  SteepestDescent driver(f.u, cfg);
  const auto start = uniform_start(4);
  const double u0 = safe_cost(f.u, start);
  const auto res = driver.run(start);
  EXPECT_LT(res.cost, u0);
  EXPECT_TRUE(markov::is_ergodic(res.p));
}

TEST(AdaptiveDescent, ConvergesFasterThanBasic) {
  Fixture fb(2, 1.0, 0.0);
  DescentConfig basic;
  basic.step_policy = StepPolicy::kConstant;
  basic.constant_step = 1e-4;
  basic.max_iterations = 50;
  const auto res_basic = SteepestDescent(fb.u, basic).run(uniform_start(4));

  Fixture fa(2, 1.0, 0.0);
  DescentConfig adaptive;
  adaptive.step_policy = StepPolicy::kLineSearch;
  adaptive.max_iterations = 50;
  const auto res_adapt = SteepestDescent(fa.u, adaptive).run(uniform_start(4));

  EXPECT_LT(res_adapt.cost, res_basic.cost);
}

TEST(AdaptiveDescent, StopsAtCriticalPoint) {
  Fixture f(1, 0.0, 1.0);
  DescentConfig cfg;
  cfg.step_policy = StepPolicy::kLineSearch;
  cfg.max_iterations = 2000;
  const auto res = SteepestDescent(f.u, cfg).run(uniform_start(4));
  EXPECT_TRUE(res.reason == StopReason::kNoDescentStep ||
              res.reason == StopReason::kGradientTolerance)
      << "reason=" << static_cast<int>(res.reason);
  EXPECT_LT(res.iterations, 2000u);
}

TEST(Descent, FinalMatrixStaysInsideSimplex) {
  Fixture f(3, 1.0, 0.0001);
  DescentConfig cfg;
  cfg.step_policy = StepPolicy::kLineSearch;
  cfg.max_iterations = 200;
  const auto res = SteepestDescent(f.u, cfg).run(uniform_start(4));
  EXPECT_GT(res.p.min_entry(), 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) s += res.p(i, j);
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(Descent, TraceDisabledLeavesEmptyTrace) {
  Fixture f(1, 1.0, 0.0);
  DescentConfig cfg;
  cfg.max_iterations = 10;
  cfg.keep_trace = false;
  const auto res = SteepestDescent(f.u, cfg).run(uniform_start(4));
  EXPECT_TRUE(res.trace.empty());
  EXPECT_EQ(res.iterations, 10u);
}

TEST(Descent, RejectsBadConfigAndStart) {
  Fixture f(1, 1.0, 0.0);
  DescentConfig bad;
  bad.max_iterations = 0;
  EXPECT_THROW(SteepestDescent(f.u, bad), std::invalid_argument);
  DescentConfig bad2;
  bad2.constant_step = 0.0;
  EXPECT_THROW(SteepestDescent(f.u, bad2), std::invalid_argument);
}


TEST(ConjugateGradient, RequiresLineSearchPolicy) {
  Fixture f(1, 1.0, 0.0);
  DescentConfig cfg;
  cfg.direction_policy = DirectionPolicy::kConjugateGradient;
  cfg.step_policy = StepPolicy::kConstant;
  EXPECT_THROW(SteepestDescent(f.u, cfg), std::invalid_argument);
}

TEST(ConjugateGradient, ConvergesAtLeastAsWellAsSteepest) {
  Fixture fs(2, 1.0, 0.0);
  DescentConfig sd;
  sd.step_policy = StepPolicy::kLineSearch;
  sd.max_iterations = 60;
  const auto res_sd = SteepestDescent(fs.u, sd).run(uniform_start(4));

  Fixture fc(2, 1.0, 0.0);
  DescentConfig cg = sd;
  cg.direction_policy = DirectionPolicy::kConjugateGradient;
  const auto res_cg = SteepestDescent(fc.u, cg).run(uniform_start(4));

  EXPECT_LE(res_cg.cost, res_sd.cost * 1.05);
}

TEST(ConjugateGradient, StaysFeasible) {
  Fixture f(3, 1.0, 1e-4);
  DescentConfig cfg;
  cfg.step_policy = StepPolicy::kLineSearch;
  cfg.direction_policy = DirectionPolicy::kConjugateGradient;
  cfg.max_iterations = 100;
  const auto res = SteepestDescent(f.u, cfg).run(uniform_start(4));
  EXPECT_GT(res.p.min_entry(), 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 4; ++j) s += res.p(i, j);
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
  EXPECT_TRUE(markov::is_ergodic(res.p));
}

TEST(Trace, SubsampleKeepsEndpoints) {
  Trace t;
  for (std::size_t i = 0; i < 100; ++i)
    t.record({i, static_cast<double>(i), 0.0, 0.0, true});
  const auto sub = t.subsample(10);
  ASSERT_GE(sub.size(), 2u);
  EXPECT_LE(sub.size(), 10u);
  EXPECT_EQ(sub.front().iteration, 0u);
  EXPECT_EQ(sub.back().iteration, 99u);
}

TEST(Trace, SubsampleShortTraceReturnsAll) {
  Trace t;
  for (std::size_t i = 0; i < 5; ++i)
    t.record({i, 0.0, 0.0, 0.0, true});
  EXPECT_EQ(t.subsample(10).size(), 5u);
  EXPECT_TRUE(t.subsample(0).empty());
}

}  // namespace
}  // namespace mocos::descent
