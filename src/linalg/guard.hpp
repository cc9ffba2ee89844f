#pragma once

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/util/status.hpp"

// Cheap validators for the vectors and matrices the numerical pipeline
// passes between layers. Each is a single O(size) scan; the `check_*` forms
// return a structured Status naming the offending entry so recovery code and
// logs can report *where* a computation went bad, not just that it did. They
// sit in namespace mocos::util beside Status, but live in the linalg layer:
// util sits below linalg in the module DAG and must not include its headers
// (mocos_lint's layer-violation rule enforces this).

namespace mocos::util {

[[nodiscard]] bool all_finite(const linalg::Vector& v);
[[nodiscard]] bool all_finite(const linalg::Matrix& m);

/// kNonFiniteValue naming `what` and the first bad index.
[[nodiscard]] Status check_finite(const linalg::Vector& v, const char* what);
[[nodiscard]] Status check_finite(const linalg::Matrix& m, const char* what);
/// Over the stored entries, naming the first bad one by (row, col).
[[nodiscard]] Status check_finite(const linalg::SparseMatrix& m,
                                  const char* what);

/// Row-stochasticity of a CSR P to within `tol`: finite stored entries in
/// [-tol, 1+tol] with every row summing to 1 ± tol (the entries off the
/// pattern are zeros). Returns kNonFiniteValue or kNotErgodic.
[[nodiscard]] Status check_row_stochastic(const linalg::SparseMatrix& m,
                                          double tol = 1e-8);

/// Probability vector: finite, entries >= -tol, sums to 1 ± tol.
[[nodiscard]] Status check_probability_vector(const linalg::Vector& v,
                                              double tol = 1e-8);

/// Strictly positive entries (mean return times, stationary masses ahead of a
/// division). Returns kNotErgodic naming the first non-positive index.
[[nodiscard]] Status check_strictly_positive(const linalg::Vector& v,
                                             const char* what,
                                             double floor = 0.0);

}  // namespace mocos::util
