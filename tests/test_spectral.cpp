#include "src/markov/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/helpers.hpp"

namespace mocos::markov {
namespace {

TEST(Slem, TwoStateClosedForm) {
  // chain2(a, b) has eigenvalues {1, 1 - a - b}.
  for (auto [a, b] : {std::pair{0.3, 0.2}, {0.5, 0.5}, {0.1, 0.05}}) {
    EXPECT_NEAR(slem(test::chain2(a, b)), std::abs(1.0 - a - b), 1e-6)
        << "a=" << a << " b=" << b;
  }
}

TEST(Slem, UniformChainMixesInstantly) {
  EXPECT_NEAR(slem(markov::TransitionMatrix::uniform(5)), 0.0, 1e-9);
}

TEST(Slem, LazyChainCloseToOne) {
  // Mostly-staying chain: eigenvalues near 1.
  linalg::Matrix m(3, 3, 0.005);
  for (std::size_t i = 0; i < 3; ++i) m(i, i) = 0.99;
  EXPECT_GT(slem(TransitionMatrix(m)), 0.9);
  EXPECT_LT(slem(TransitionMatrix(m)), 1.0);
}

TEST(Slem, LazinessInterpolation) {
  // P_lazy = (1-w) I + w P has SLEM 1 - w(1 - lambda2(P)) for real spectra;
  // for the symmetric two-state chain this is exact.
  const auto base = test::chain2(0.5, 0.5);  // lambda2 = 0
  for (double w : {0.25, 0.5, 0.75}) {
    linalg::Matrix m(2, 2);
    for (std::size_t i = 0; i < 2; ++i)
      for (std::size_t j = 0; j < 2; ++j)
        m(i, j) = (1.0 - w) * (i == j ? 1.0 : 0.0) + w * base(i, j);
    EXPECT_NEAR(slem(TransitionMatrix(m)), 1.0 - w, 1e-6);
  }
}

TEST(Slem, BoundedByOneForRandomChains) {
  util::Rng rng(123);
  for (int t = 0; t < 20; ++t) {
    const double s = slem(test::random_positive_chain(6, rng));
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(RelaxationTime, InverseSpectralGap) {
  const auto p = test::chain2(0.3, 0.3);  // slem = 0.4
  EXPECT_NEAR(relaxation_time(p), 1.0 / 0.6, 1e-6);
}

TEST(MixingTime, UniformChainMixesInOneStep) {
  EXPECT_EQ(mixing_time(TransitionMatrix::uniform(4), 0.01), 1u);
}

TEST(MixingTime, SlowChainTakesLonger) {
  linalg::Matrix fast_m{{0.5, 0.5}, {0.5, 0.5}};
  linalg::Matrix slow_m{{0.95, 0.05}, {0.05, 0.95}};
  const auto fast = mixing_time(TransitionMatrix(fast_m), 0.05);
  const auto slow = mixing_time(TransitionMatrix(slow_m), 0.05);
  EXPECT_LT(fast, slow);
  EXPECT_GT(slow, 10u);
}

TEST(MixingTime, MatchesGeometricDecayForTwoState) {
  // TV distance from the worst start decays exactly like |1-a-b|^t * max
  // start distance; for a=b the distance at t is (1-2a)^t / 2.
  const double a = 0.2;
  const auto p = test::chain2(a, a);
  const double lambda = 1.0 - 2.0 * a;
  const double eps = 0.05;
  // Smallest t with lambda^t / 2 <= eps.
  std::size_t expected = static_cast<std::size_t>(
      std::ceil(std::log(2.0 * eps) / std::log(lambda)));
  EXPECT_EQ(mixing_time(p, eps), expected);
}

TEST(MixingTime, RejectsBadEps) {
  EXPECT_THROW(mixing_time(TransitionMatrix::uniform(3), 0.0),
               std::invalid_argument);
  EXPECT_THROW(mixing_time(TransitionMatrix::uniform(3), 1.0),
               std::invalid_argument);
}

TEST(Kemeny, StartIndependence) {
  util::Rng rng(321);
  for (int t = 0; t < 10; ++t) {
    const auto chain =
        test::unwrap(try_analyze_chain(test::random_positive_chain(5, rng)));
    const double k0 = kemeny_constant_from_row(chain, 0);
    for (std::size_t i = 1; i < 5; ++i)
      EXPECT_NEAR(kemeny_constant_from_row(chain, i), k0, 1e-9);
  }
}

TEST(Kemeny, TraceIdentity) {
  util::Rng rng(322);
  for (int t = 0; t < 10; ++t) {
    const auto chain =
        test::unwrap(try_analyze_chain(test::random_positive_chain(4, rng)));
    EXPECT_NEAR(kemeny_constant(chain), kemeny_constant_from_row(chain, 0),
                1e-9);
  }
}

TEST(Kemeny, TwoStateClosedForm) {
  // For chain2(a,b): K = trace(Z) - 1; Z eigenvalues {1, 1/(a+b)} =>
  // trace Z = 1 + 1/(a+b); K = 1/(a+b).
  const double a = 0.3, b = 0.2;
  const auto chain = test::unwrap(try_analyze_chain(test::chain2(a, b)));
  EXPECT_NEAR(kemeny_constant(chain), 1.0 / (a + b), 1e-10);
}

TEST(Kemeny, UniformChainValue) {
  // Uniform chain on n states: Z = I, so K = trace(Z) - 1 = n - 1.
  const auto chain =
      test::unwrap(try_analyze_chain(TransitionMatrix::uniform(6)));
  EXPECT_NEAR(kemeny_constant(chain), 5.0, 1e-10);
}

TEST(Kemeny, RowOutOfRangeThrows) {
  const auto chain = test::unwrap(try_analyze_chain(test::chain3()));
  EXPECT_THROW(kemeny_constant_from_row(chain, 3), std::out_of_range);
}


TEST(Spectrum, ExactSlemMatchesEstimatorAndSpectrumShape) {
  util::Rng rng(324);
  for (int t = 0; t < 8; ++t) {
    const auto p = test::random_positive_chain(5, rng);
    const auto eig = chain_spectrum(p);
    ASSERT_EQ(eig.size(), 5u);
    EXPECT_NEAR(std::abs(eig[0]), 1.0, 1e-9);
    for (std::size_t k = 1; k < 5; ++k) EXPECT_LT(std::abs(eig[k]), 1.0);
    EXPECT_NEAR(slem(p), slem_exact(p), 1e-3 + 1e-2 * slem_exact(p));
  }
}

TEST(Spectrum, CyclicStructureShowsComplexPairs) {
  // A strongly cyclic (but aperiodic) 3-chain has a complex pair.
  linalg::Matrix m{{0.05, 0.9, 0.05}, {0.05, 0.05, 0.9}, {0.9, 0.05, 0.05}};
  const auto eig = chain_spectrum(TransitionMatrix(m));
  bool complex_pair = false;
  for (const auto& l : eig)
    if (std::abs(l.imag()) > 0.1) complex_pair = true;
  EXPECT_TRUE(complex_pair);
}

}  // namespace
}  // namespace mocos::markov
