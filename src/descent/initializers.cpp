#include "src/descent/initializers.hpp"

#include <stdexcept>
#include <utility>

#include "src/markov/ergodicity.hpp"

namespace mocos::descent {

markov::TransitionMatrix uniform_start(std::size_t n) {
  return markov::TransitionMatrix::uniform(n);
}

markov::TransitionMatrix support_uniform_start(
    const linalg::Pattern& support) {
  linalg::SparseMatrix m(support);
  const auto& offsets = support->row_offsets();
  for (std::size_t i = 0; i < support->rows(); ++i) {
    if (support->diagonal(i) == linalg::SparsityPattern::npos)
      throw std::invalid_argument(
          "support_uniform_start: row support must include the self loop");
    const double u = 1.0 / static_cast<double>(offsets[i + 1] - offsets[i]);
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      m.values()[e] = u;
  }
  return markov::TransitionMatrix(std::move(m));
}

markov::TransitionMatrix random_start(std::size_t n, util::Rng& rng) {
  constexpr int kMaxTries = 64;
  for (int t = 0; t < kMaxTries; ++t) {
    markov::TransitionMatrix p = markov::TransitionMatrix::random(n, rng);
    if (p.min_entry() > 0.0 && markov::is_ergodic(p)) return p;
  }
  throw std::runtime_error("random_start: could not sample an ergodic chain");
}

markov::TransitionMatrix blended_start(std::size_t n, double w,
                                       util::Rng& rng) {
  if (w < 0.0 || w > 1.0)
    throw std::invalid_argument("blended_start: w outside [0,1]");
  const markov::TransitionMatrix r = random_start(n, rng);
  linalg::Matrix m(n, n);
  const double u = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = (1.0 - w) * u + w * r(i, j);
  return markov::TransitionMatrix(std::move(m));
}

}  // namespace mocos::descent
