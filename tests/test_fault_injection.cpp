#include "src/util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/cost/barrier_term.hpp"
#include "src/cost/composite_cost.hpp"
#include "src/cost/gradient.hpp"
#include "src/descent/line_search.hpp"
#include "src/linalg/lu.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/stationary.hpp"
#include "src/util/status.hpp"
#include "tests/helpers.hpp"

namespace mocos::util::fault {
namespace {

// The harness is process-global; every test starts from a clean slate.
struct FaultInjectionTest : ::testing::Test {
  void SetUp() override { disarm_all(); }
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultInjectionTest, SiteNames) {
  EXPECT_STREQ(to_string(Site::kLuFactor), "lu-factor");
  EXPECT_STREQ(to_string(Site::kStationary), "stationary");
  EXPECT_STREQ(to_string(Site::kGradient), "gradient");
  EXPECT_STREQ(to_string(Site::kLineSearch), "line-search");
}

TEST_F(FaultInjectionTest, DisarmedNeverFiresButCounts) {
  EXPECT_EQ(evaluations(Site::kLuFactor), 0u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(fire(Site::kLuFactor));
  EXPECT_EQ(evaluations(Site::kLuFactor), 5u);
  EXPECT_EQ(fired(Site::kLuFactor), 0u);
}

TEST_F(FaultInjectionTest, WindowFiresOnExactInvocations) {
  arm(Site::kGradient, /*fire_at=*/2, /*count=*/3);
  std::vector<bool> hits;
  for (int i = 0; i < 7; ++i) hits.push_back(fire(Site::kGradient));
  const std::vector<bool> expected{false, false, true, true, true,
                                   false, false};
  EXPECT_EQ(hits, expected);
  EXPECT_EQ(evaluations(Site::kGradient), 7u);
  EXPECT_EQ(fired(Site::kGradient), 3u);
}

TEST_F(FaultInjectionTest, ReArmingResetsTheCounter) {
  arm(Site::kLineSearch, 0, 1);
  EXPECT_TRUE(fire(Site::kLineSearch));
  EXPECT_FALSE(fire(Site::kLineSearch));
  arm(Site::kLineSearch, 0, 1);  // counter restarts at zero
  EXPECT_TRUE(fire(Site::kLineSearch));
}

TEST_F(FaultInjectionTest, SitesAreIndependent) {
  arm(Site::kLuFactor, 0, 100);
  EXPECT_TRUE(fire(Site::kLuFactor));
  EXPECT_FALSE(fire(Site::kStationary));
  EXPECT_FALSE(fire(Site::kGradient));
}

TEST_F(FaultInjectionTest, ProbabilisticIsSeedReproducible) {
  auto sample = [](std::uint64_t seed) {
    arm_probabilistic(Site::kGradient, 0.3, seed);
    std::vector<bool> hits;
    for (int i = 0; i < 200; ++i) hits.push_back(fire(Site::kGradient));
    return hits;
  };
  const auto a = sample(42);
  const auto b = sample(42);
  EXPECT_EQ(a, b);  // same seed, identical fault pattern
  EXPECT_NE(a, sample(43));

  std::size_t n_hit = 0;
  for (bool h : a) n_hit += h;
  EXPECT_GT(n_hit, 0u);
  EXPECT_LT(n_hit, 200u);
}

TEST_F(FaultInjectionTest, ProbabilisticExtremes) {
  arm_probabilistic(Site::kStationary, 0.0, 7);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(fire(Site::kStationary));
  arm_probabilistic(Site::kStationary, 1.0, 7);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(fire(Site::kStationary));
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault guard(Site::kLuFactor, 0, 100);
    EXPECT_TRUE(fire(Site::kLuFactor));
  }
  EXPECT_FALSE(fire(Site::kLuFactor));
  EXPECT_EQ(fired(Site::kLuFactor), 0u);  // disarm reset the tallies
}

// --- Instrumented library sites ------------------------------------------

TEST_F(FaultInjectionTest, ForcesSingularFactorization) {
  const linalg::Matrix well_conditioned{{4.0, 1.0}, {1.0, 3.0}};
  {
    ScopedFault guard(Site::kLuFactor, 0, 1);
    const auto lu = linalg::LuDecomposition::try_factor(well_conditioned);
    ASSERT_FALSE(lu.ok());
    EXPECT_EQ(lu.status().code(), StatusCode::kSingularMatrix);
  }
  // Window passed: the same matrix factors cleanly again.
  const auto lu = linalg::LuDecomposition::try_factor(well_conditioned);
  ASSERT_TRUE(lu.ok());
  EXPECT_TRUE(lu->diagnostics().completed());
}

TEST_F(FaultInjectionTest, ForcesDirectStationarySolveFailure) {
  const auto p = test::chain3();
  const auto clean = markov::try_stationary_distribution(p);
  ASSERT_TRUE(clean.ok());

  ScopedFault guard(Site::kStationary, 0, 1000);
  const auto direct = markov::try_stationary_distribution(p);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kSingularMatrix);

  // The power-iteration path is untouched by this site — exactly the
  // escape hatch the descent recovery ladder relies on.
  const auto power = markov::try_stationary_distribution(
      p, markov::SolvePolicy::kPowerIteration);
  ASSERT_TRUE(power.ok());
  for (std::size_t i = 0; i < clean->size(); ++i)
    EXPECT_NEAR((*power)[i], (*clean)[i], 1e-9);
}

TEST_F(FaultInjectionTest, PoisonsGradientWithNaN) {
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  cost::CompositeCost u;
  u.add(std::make_unique<cost::BarrierTerm>(1e-4));

  ScopedFault guard(Site::kGradient, 0, 1);
  const linalg::SparseMatrix g = cost::cost_gradient(u, chain);
  EXPECT_TRUE(std::isnan(g(0, 0)));
  const linalg::SparseMatrix g2 = cost::cost_gradient(u, chain);  // window passed
  EXPECT_FALSE(std::isnan(g2(0, 0)));
}

TEST_F(FaultInjectionTest, ForcesLineSearchRejection) {
  const auto phi = [](double t) { return (t - 1.0) * (t - 1.0); };
  {
    ScopedFault guard(Site::kLineSearch, 0, 1);
    const auto rejected =
        descent::trisection_search(phi, phi(0.0), 2.0, {});
    EXPECT_EQ(rejected.step, 0.0);
  }
  const auto accepted = descent::trisection_search(phi, phi(0.0), 2.0, {});
  EXPECT_GT(accepted.step, 0.0);
}

}  // namespace
}  // namespace mocos::util::fault
