#include "src/sensing/travel_model.hpp"
#include "src/cost/composite_cost.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/cost/barrier_term.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

CompositeCost paper_cost(double alpha, double beta, double eps = 1e-4) {
  static sensing::TravelModel model(geometry::paper_topology(1), 1.0, 1.0,
                                    0.25);
  static sensing::CoverageTensors tensors(model);
  CompositeCost u;
  u.add(std::make_unique<CoverageDeviationTerm>(
      tensors, model.topology().targets(), alpha));
  u.add(std::make_unique<ExposureTerm>(4, beta));
  u.add(std::make_unique<BarrierTerm>(eps));
  return u;
}

TEST(CompositeCost, SumsTermValues) {
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  CompositeCost u = paper_cost(1.0, 1.0);
  double sum = 0.0;
  for (const auto& [name, v] : u.breakdown(chain)) sum += v;
  EXPECT_NEAR(u.value(chain), sum, 1e-12);
}

TEST(CompositeCost, BreakdownNamesTerms) {
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  const auto bd = paper_cost(1.0, 1.0).breakdown(chain);
  ASSERT_EQ(bd.size(), 3u);
  EXPECT_EQ(bd[0].first, "coverage_deviation");
  EXPECT_EQ(bd[1].first, "exposure");
  EXPECT_EQ(bd[2].first, "barrier");
}

TEST(CompositeCost, PartialsSumAcrossTerms) {
  util::Rng rng(91);
  const auto chain = test::unwrap(
      markov::try_analyze_chain(test::random_positive_chain(4, rng)));
  CompositeCost u = paper_cost(1.0, 1.0);
  const Partials total = u.partials(chain);
  // Compare against manually accumulating each term.
  Partials manual(4);
  for (std::size_t t = 0; t < u.num_terms(); ++t)
    u.term(t).accumulate_partials(chain, manual);
  EXPECT_TRUE(linalg::approx_equal(total.du_dp.to_dense(), manual.du_dp.to_dense(),
                                   1e-15));
  EXPECT_TRUE(linalg::approx_equal(total.du_dz, manual.du_dz, 1e-15));
  EXPECT_TRUE(linalg::approx_equal(total.du_dpi, manual.du_dpi, 1e-15));
}

TEST(CompositeCost, ConvenienceOverloadAnalyzesChain) {
  const auto p = markov::TransitionMatrix::uniform(4);
  CompositeCost u = paper_cost(1.0, 0.5);
  EXPECT_NEAR(u.value(p), u.value(test::unwrap(markov::try_analyze_chain(p))),
              1e-15);
}

TEST(CompositeCost, RejectsNullTerm) {
  CompositeCost u;
  EXPECT_THROW(u.add(nullptr), std::invalid_argument);
}

TEST(CompositeCost, TermIndexOutOfRangeThrows) {
  CompositeCost u = paper_cost(1.0, 1.0);
  EXPECT_THROW(u.term(3), std::out_of_range);
}

TEST(CompositeCost, EmptyCostIsZero) {
  CompositeCost u;
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EXPECT_DOUBLE_EQ(u.value(chain), 0.0);
}

TEST(Partials, AccumulateAndSizeChecks) {
  Partials a(3), b(3);
  a.du_dpi[0] = 1.0;
  b.du_dpi[0] = 2.0;
  b.du_dp(1, 1) = 4.0;
  a += b;
  EXPECT_DOUBLE_EQ(a.du_dpi[0], 3.0);
  EXPECT_DOUBLE_EQ(a.du_dp(1, 1), 4.0);
  Partials c(2);
  EXPECT_THROW(a += c, std::invalid_argument);
}

}  // namespace
}  // namespace mocos::cost
