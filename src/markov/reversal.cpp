#include "src/markov/reversal.hpp"

#include <cmath>

#include "src/markov/stationary.hpp"

namespace mocos::markov {

TransitionMatrix reversed_chain(const TransitionMatrix& p) {
  const std::size_t n = p.size();
  const linalg::Vector pi = try_stationary_distribution(p).value();
  linalg::Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      r(i, j) = pi[j] * p(j, i) / pi[i];
  return TransitionMatrix(std::move(r));
}

bool is_reversible(const TransitionMatrix& p, double tol) {
  const linalg::Vector pi = try_stationary_distribution(p).value();
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t j = i + 1; j < p.size(); ++j)
      if (std::abs(pi[i] * p(i, j) - pi[j] * p(j, i)) > tol) return false;
  return true;
}

}  // namespace mocos::markov
