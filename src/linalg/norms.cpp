#include "src/linalg/norms.hpp"

#include <cmath>

namespace mocos::linalg {

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double norm1(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += std::abs(x);
  return s;
}

double frobenius_norm(const Matrix& m) {
  return std::sqrt(frobenius_dot(m, m));
}

double max_abs(const Matrix& m) {
  double best = 0.0;
  const double* p = m.data();
  for (std::size_t i = 0; i < m.rows() * m.cols(); ++i)
    best = std::max(best, std::abs(p[i]));
  return best;
}

double frobenius_norm(const SparseMatrix& m) {
  return std::sqrt(frobenius_dot(m, m));
}

double max_abs(const SparseMatrix& m) {
  double best = 0.0;
  for (double x : m.values()) best = std::max(best, std::abs(x));
  return best;
}

}  // namespace mocos::linalg
