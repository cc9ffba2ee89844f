#include "src/cost/partials.hpp"

#include <stdexcept>

namespace mocos::cost {

Partials& Partials::operator+=(const Partials& rhs) {
  if (rhs.size() != size())
    throw std::invalid_argument("Partials::+=: size mismatch");
  for (std::size_t i = 0; i < du_dpi.size(); ++i) du_dpi[i] += rhs.du_dpi[i];
  du_dz += rhs.du_dz;
  du_dp += rhs.du_dp;
  return *this;
}

void Partials::clear() {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) du_dpi[i] = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) du_dp(i, j) = 0.0;
  for (std::size_t i = 0; i < du_dz.rows(); ++i)
    for (std::size_t j = 0; j < du_dz.cols(); ++j) du_dz(i, j) = 0.0;
}

}  // namespace mocos::cost
