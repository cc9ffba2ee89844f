#include "src/markov/entropy.hpp"

#include <cmath>
#include <stdexcept>

#include "src/markov/stationary.hpp"

namespace mocos::markov {

double entropy_rate(const TransitionMatrix& p, const linalg::Vector& pi) {
  if (p.size() != pi.size())
    throw std::invalid_argument("entropy_rate: size mismatch");
  const auto& offsets = p.csr().row_offsets();
  const auto& values = p.csr().values();
  double h = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const double q = values[e];
      if (q > 0.0) h -= pi[i] * q * std::log(q);
    }
  }
  return h;
}

double entropy_rate(const TransitionMatrix& p) {
  return entropy_rate(p, try_stationary_distribution(p).value());
}

double max_entropy_rate(std::size_t n_states) {
  if (n_states == 0) throw std::invalid_argument("max_entropy_rate: n == 0");
  return std::log(static_cast<double>(n_states));
}

}  // namespace mocos::markov
