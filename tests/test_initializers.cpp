#include "src/descent/initializers.hpp"

#include <gtest/gtest.h>

#include "src/markov/ergodicity.hpp"

namespace mocos::descent {
namespace {

TEST(Initializers, UniformStart) {
  const auto p = uniform_start(5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(p(i, j), 0.2);
}

TEST(Initializers, RandomStartIsErgodic) {
  util::Rng rng(7);
  for (int t = 0; t < 20; ++t) {
    const auto p = random_start(4, rng);
    EXPECT_TRUE(markov::is_ergodic(p));
    EXPECT_GT(p.min_entry(), 0.0);
  }
}

TEST(Initializers, RandomStartsDiffer) {
  util::Rng rng(8);
  const auto a = random_start(4, rng);
  const auto b = random_start(4, rng);
  EXPECT_FALSE(linalg::approx_equal(a.to_dense(), b.to_dense(), 1e-6));
}

TEST(Initializers, BlendedStartInterpolates) {
  util::Rng rng(9);
  const auto b0 = blended_start(4, 0.0, rng);
  EXPECT_TRUE(linalg::approx_equal(b0.to_dense(),
                                   uniform_start(4).to_dense(), 1e-12));
  const auto b1 = blended_start(4, 0.5, rng);
  EXPECT_TRUE(markov::is_ergodic(b1));
  EXPECT_THROW(blended_start(4, 1.5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace mocos::descent
