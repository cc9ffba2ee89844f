#include "src/linalg/guard.hpp"

#include <cmath>
#include <string>

namespace mocos::util {

namespace {

std::string fmt_entry(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "+inf" : "-inf";
  return std::to_string(v);
}

}  // namespace

bool all_finite(const linalg::Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

bool all_finite(const linalg::Matrix& m) {
  const double* p = m.data();
  const std::size_t n = m.rows() * m.cols();
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

Status check_finite(const linalg::Vector& v, const char* what) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i]))
      return Status(StatusCode::kNonFiniteValue,
                    std::string(what) + "[" + std::to_string(i) + "] is " +
                        fmt_entry(v[i]));
  return Status::ok();
}

Status check_finite(const linalg::Matrix& m, const char* what) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j)))
        return Status(StatusCode::kNonFiniteValue,
                      std::string(what) + "(" + std::to_string(i) + "," +
                          std::to_string(j) + ") is " + fmt_entry(m(i, j)));
  return Status::ok();
}

Status check_finite(const linalg::SparseMatrix& m, const char* what) {
  const auto& offsets = m.row_offsets();
  const auto& cols = m.col_indices();
  const auto& values = m.values();
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      if (!std::isfinite(values[e]))
        return Status(StatusCode::kNonFiniteValue,
                      std::string(what) + "(" + std::to_string(i) + "," +
                          std::to_string(cols[e]) + ") is " +
                          fmt_entry(values[e]));
  return Status::ok();
}

Status check_row_stochastic(const linalg::SparseMatrix& m, double tol) {
  if (m.rows() != m.cols())
    return Status(StatusCode::kSizeMismatch, "matrix not square");
  const auto& offsets = m.row_offsets();
  const auto& cols = m.col_indices();
  const auto& values = m.values();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const double v = values[e];
      if (!std::isfinite(v))
        return Status(StatusCode::kNonFiniteValue,
                      "P(" + std::to_string(i) + "," +
                          std::to_string(cols[e]) + ") is " + fmt_entry(v));
      if (v < -tol || v > 1.0 + tol)
        return Status(StatusCode::kNotErgodic,
                      "P(" + std::to_string(i) + "," +
                          std::to_string(cols[e]) + ") = " + fmt_entry(v) +
                          " outside [0,1]");
      sum += v;
    }
    if (std::abs(sum - 1.0) > tol)
      return Status(StatusCode::kNotErgodic,
                    "row " + std::to_string(i) + " sums to " + fmt_entry(sum));
  }
  return Status::ok();
}

Status check_probability_vector(const linalg::Vector& v, double tol) {
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i]))
      return Status(StatusCode::kNonFiniteValue,
                    "pi[" + std::to_string(i) + "] is " + fmt_entry(v[i]));
    if (v[i] < -tol)
      return Status(StatusCode::kNotErgodic,
                    "pi[" + std::to_string(i) + "] = " + fmt_entry(v[i]) +
                        " is negative");
    sum += v[i];
  }
  if (std::abs(sum - 1.0) > tol)
    return Status(StatusCode::kNotErgodic, "pi sums to " + fmt_entry(sum));
  return Status::ok();
}

Status check_strictly_positive(const linalg::Vector& v, const char* what,
                               double floor) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i]))
      return Status(StatusCode::kNonFiniteValue,
                    std::string(what) + "[" + std::to_string(i) + "] is " +
                        fmt_entry(v[i]));
    if (v[i] <= floor)
      return Status(StatusCode::kNotErgodic,
                    std::string(what) + "[" + std::to_string(i) + "] = " +
                        fmt_entry(v[i]) + " is not strictly positive");
  }
  return Status::ok();
}

}  // namespace mocos::util
