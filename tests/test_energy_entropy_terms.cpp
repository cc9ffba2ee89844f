#include <gtest/gtest.h>

#include <cmath>

#include "src/sensing/travel_model.hpp"
#include "src/cost/energy_term.hpp"
#include "src/cost/entropy_term.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/markov/entropy.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

sensing::CoverageTensors tensors1() {
  static sensing::TravelModel model(geometry::paper_topology(1), 1.0, 1.0,
                                    0.25);
  return sensing::CoverageTensors(model);
}

TEST(EnergyTerm, LazyChainUsesNoEnergy) {
  // A chain that (almost) never moves has D ≈ 0.
  const auto tensors = tensors1();
  linalg::Matrix m(4, 4, 0.001 / 3.0);
  for (std::size_t i = 0; i < 4; ++i) m(i, i) = 0.999;
  const auto chain =
      test::unwrap(markov::try_analyze_chain(markov::TransitionMatrix(m)));
  EnergyTerm term(tensors, 1.0);
  EXPECT_LT(term.expected_distance(chain), 0.01);
}

TEST(EnergyTerm, ExpectedDistanceDefinition) {
  const auto tensors = tensors1();
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EnergyTerm term(tensors, 1.0);
  double expect = 0.0;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      expect += chain.pi[i] * chain.p(i, j) * tensors.distances()(i, j);
  EXPECT_NEAR(term.expected_distance(chain), expect, 1e-14);
}

TEST(EnergyTerm, ValueIsHalfGammaSquaredDeviation) {
  const auto tensors = tensors1();
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EnergyTerm term(tensors, 3.0, 0.5);
  const double d = term.expected_distance(chain);
  EXPECT_NEAR(term.value(chain), 0.5 * 3.0 * (d - 0.5) * (d - 0.5), 1e-14);
}

TEST(EnergyTerm, ZeroAtTarget) {
  const auto tensors = tensors1();
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EnergyTerm term(tensors, 2.0, 0.0);
  const double d0 = term.expected_distance(chain);
  EnergyTerm at_target(tensors, 2.0, d0);
  EXPECT_NEAR(at_target.value(chain), 0.0, 1e-18);
}

TEST(EnergyTerm, RejectsBadParameters) {
  const auto tensors = tensors1();
  EXPECT_THROW(EnergyTerm(tensors, -1.0), std::invalid_argument);
  EXPECT_THROW(EnergyTerm(tensors, 1.0, -1.0), std::invalid_argument);
}

TEST(EnergyTerm, PartialsVanishAtTarget) {
  const auto tensors = tensors1();
  const auto chain = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  EnergyTerm term(tensors, 2.0, 0.0);
  EnergyTerm at_target(tensors, 2.0, term.expected_distance(chain));
  Partials p(4);
  at_target.accumulate_partials(chain, p);
  EXPECT_NEAR(linalg::frobenius_dot(p.du_dp, p.du_dp), 0.0, 1e-20);
}

TEST(EntropyTerm, ValueIsMinusWeightedEntropyRate) {
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EntropyTerm term(2.0);
  const double h = markov::entropy_rate(chain.p, chain.pi);
  EXPECT_NEAR(term.value(chain), -2.0 * h, 1e-14);
}

TEST(EntropyTerm, UniformChainMinimizesEntropyCost) {
  // Among all chains, the uniform chain maximizes H, hence minimizes -wH.
  EntropyTerm term(1.0);
  const auto uniform = test::unwrap(
      markov::try_analyze_chain(markov::TransitionMatrix::uniform(4)));
  util::Rng rng(81);
  for (int t = 0; t < 10; ++t) {
    const auto other = test::unwrap(
        markov::try_analyze_chain(test::random_positive_chain(4, rng)));
    EXPECT_LE(term.value(uniform), term.value(other) + 1e-12);
  }
}

TEST(EntropyTerm, ZeroWeightIsInert) {
  EntropyTerm term(0.0);
  const auto chain = test::unwrap(markov::try_analyze_chain(test::chain3()));
  EXPECT_DOUBLE_EQ(term.value(chain), 0.0);
  Partials p(3);
  term.accumulate_partials(chain, p);
  EXPECT_DOUBLE_EQ(linalg::frobenius_dot(p.du_dp, p.du_dp), 0.0);
}

TEST(EntropyTerm, RejectsNegativeWeight) {
  EXPECT_THROW(EntropyTerm(-0.5), std::invalid_argument);
}

}  // namespace
}  // namespace mocos::cost
