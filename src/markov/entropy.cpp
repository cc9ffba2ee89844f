#include "src/markov/entropy.hpp"

#include <cmath>
#include <stdexcept>

#include "src/markov/stationary.hpp"

namespace mocos::markov {

double entropy_rate(const linalg::Matrix& p, const linalg::Vector& pi) {
  if (p.rows() != pi.size())
    throw std::invalid_argument("entropy_rate: size mismatch");
  double h = 0.0;
  for (std::size_t i = 0; i < p.rows(); ++i) {
    for (std::size_t j = 0; j < p.cols(); ++j) {
      const double q = p(i, j);
      if (q > 0.0) h -= pi[i] * q * std::log(q);
    }
  }
  return h;
}

double entropy_rate(const TransitionMatrix& p) {
  return entropy_rate(p.matrix(), try_stationary_distribution(p).value());
}

double max_entropy_rate(std::size_t n_states) {
  if (n_states == 0) throw std::invalid_argument("max_entropy_rate: n == 0");
  return std::log(static_cast<double>(n_states));
}

}  // namespace mocos::markov
