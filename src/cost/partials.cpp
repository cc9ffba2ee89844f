#include "src/cost/partials.hpp"

#include <algorithm>
#include <stdexcept>

namespace mocos::cost {

Partials::Partials(const markov::TransitionMatrix& p, bool with_z)
    : du_dpi(p.size(), 0.0),
      du_dz(with_z ? p.size() : 0, with_z ? p.size() : 0, 0.0),
      du_dp(p.csr().shared_pattern(), 0.0) {}

Partials::Partials(std::size_t n, bool with_z)
    : du_dpi(n, 0.0),
      du_dz(with_z ? n : 0, with_z ? n : 0, 0.0),
      du_dp(linalg::SparsityPattern::full(n, n), 0.0) {}

std::vector<double>& Partials::dp_on(const markov::TransitionMatrix& p) {
  if (!(du_dp.pattern() == p.pattern()))
    throw std::invalid_argument("Partials: du_dp is not on P's pattern");
  return du_dp.values();
}

Partials& Partials::operator+=(const Partials& rhs) {
  if (rhs.size() != size())
    throw std::invalid_argument("Partials::+=: size mismatch");
  for (std::size_t i = 0; i < du_dpi.size(); ++i) du_dpi[i] += rhs.du_dpi[i];
  du_dz += rhs.du_dz;
  du_dp += rhs.du_dp;
  return *this;
}

void Partials::clear() {
  std::fill(du_dpi.begin(), du_dpi.end(), 0.0);
  std::fill(du_dp.values().begin(), du_dp.values().end(), 0.0);
  for (std::size_t i = 0; i < du_dz.rows(); ++i)
    for (std::size_t j = 0; j < du_dz.cols(); ++j) du_dz(i, j) = 0.0;
}

}  // namespace mocos::cost
