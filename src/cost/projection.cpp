#include "src/cost/projection.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace mocos::cost {

linalg::Matrix project_row_sum_zero(const linalg::Matrix& grad) {
  linalg::Matrix out(grad.rows(), grad.cols());
  for (std::size_t i = 0; i < grad.rows(); ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < grad.cols(); ++j) mean += grad(i, j);
    mean /= static_cast<double>(grad.cols());
    for (std::size_t j = 0; j < grad.cols(); ++j)
      out(i, j) = grad(i, j) - mean;
  }
  return out;
}

linalg::SparseMatrix project_row_sum_zero_on_support(
    const linalg::SparseMatrix& grad, const markov::TransitionMatrix& p) {
  if (!grad.shared_pattern() || !(grad.pattern() == p.pattern()))
    throw std::invalid_argument(
        "project_row_sum_zero_on_support: gradient is not on P's pattern");
  linalg::SparseMatrix out(grad.shared_pattern());
  const auto& offsets = grad.row_offsets();
  const std::vector<double>& g = grad.values();
  const std::vector<double>& pv = p.csr().values();
  std::vector<double>& o = out.values();
  for (std::size_t i = 0; i < grad.rows(); ++i) {
    double mean = 0.0;
    std::size_t support = 0;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      // Exact on purpose: an explicit zero on the pattern is held at zero
      // like the structural ones; near-zeros are live probabilities.
      // mocos-lint: allow(float-eq)
      if (pv[e] == 0.0) continue;
      mean += g[e];
      ++support;
    }
    if (support == 0) continue;  // all-zero row: leave the projection at 0
    mean /= static_cast<double>(support);
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      // mocos-lint: allow(float-eq)
      if (pv[e] == 0.0) continue;
      o[e] = g[e] - mean;
    }
  }
  return out;
}

double max_abs_row_sum(const linalg::Matrix& m) {
  double best = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) s += m(i, j);
    best = std::max(best, std::abs(s));
  }
  return best;
}

}  // namespace mocos::cost
