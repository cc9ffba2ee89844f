#include "src/markov/transition_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mocos::markov {

namespace {

/// Validates a dense candidate in place, as validate() does on a pattern.
void validate_dense(linalg::Matrix& m, double tol) {
  if (!m.is_square() || m.rows() < 2)
    throw std::invalid_argument("TransitionMatrix: need square, size >= 2");
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      double v = m(i, j);
      if (v < -tol || v > 1.0 + tol)
        throw std::invalid_argument("TransitionMatrix: entry out of [0,1]");
      v = std::clamp(v, 0.0, 1.0);
      m(i, j) = v;
      sum += v;
    }
    if (std::abs(sum - 1.0) > tol)
      throw std::invalid_argument("TransitionMatrix: row does not sum to 1");
    for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) /= sum;
  }
}

}  // namespace

TransitionMatrix::TransitionMatrix(linalg::Matrix m, double tol) {
  validate_dense(m, tol);
  const std::size_t n = m.rows();
  std::vector<std::vector<std::size_t>> rows(n);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      // Exact on purpose: the structural zeros are the support mask.
      // mocos-lint: allow(float-eq)
      if (m(i, j) != 0.0) {
        rows[i].push_back(j);
        values.push_back(m(i, j));
      }
  m_ = linalg::SparseMatrix(linalg::SparsityPattern::from_rows(n, rows),
                            std::move(values));
}

TransitionMatrix::TransitionMatrix(linalg::SparseMatrix m, double tol)
    : m_(std::move(m)) {
  validate(tol);
}

void TransitionMatrix::validate(double tol) {
  if (m_.rows() != m_.cols() || m_.rows() < 2)
    throw std::invalid_argument("TransitionMatrix: need square, size >= 2");
  for (std::size_t i = 0; i < m_.rows(); ++i) validate_row(i, tol);
}

void TransitionMatrix::validate_row(std::size_t i, double tol) {
  const auto& offsets = m_.row_offsets();
  std::vector<double>& values = m_.values();
  double sum = 0.0;
  for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
    double v = values[e];
    if (v < -tol || v > 1.0 + tol)
      throw std::invalid_argument("TransitionMatrix: entry out of [0,1]");
    v = std::clamp(v, 0.0, 1.0);
    values[e] = v;
    sum += v;
  }
  if (std::abs(sum - 1.0) > tol)
    throw std::invalid_argument("TransitionMatrix: row does not sum to 1");
  for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) values[e] /= sum;
}

TransitionMatrix TransitionMatrix::uniform(std::size_t n) {
  if (n < 2) throw std::invalid_argument("TransitionMatrix::uniform: n < 2");
  return TransitionMatrix(linalg::SparseMatrix(
      linalg::SparsityPattern::full(n, n), 1.0 / static_cast<double>(n)));
}

TransitionMatrix TransitionMatrix::random(std::size_t n, util::Rng& rng) {
  if (n < 2) throw std::invalid_argument("TransitionMatrix::random: n < 2");
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double rem = 1.0;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      const double v = rng.uniform() * rem / static_cast<double>(n);
      m(i, j) = v;
      rem -= v;
    }
    m(i, n - 1) = rem;
  }
  return TransitionMatrix(std::move(m));
}

linalg::Vector TransitionMatrix::row(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("TransitionMatrix::row");
  linalg::Vector r(size(), 0.0);
  const auto& offsets = m_.row_offsets();
  const auto& cols = m_.col_indices();
  for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
    r[cols[e]] = m_.values()[e];
  return r;
}

double TransitionMatrix::min_entry() const {
  double best = m_.pattern().is_full() ? 1.0 : 0.0;
  for (double v : m_.values()) best = std::min(best, v);
  return best;
}

}  // namespace mocos::markov
