#pragma once

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"

namespace mocos::linalg {

/// Euclidean norm of a vector.
double norm2(const Vector& v);
/// Max-abs entry of a vector.
double norm_inf(const Vector& v);
/// Sum of |entries|.
double norm1(const Vector& v);

/// Frobenius norm of a matrix — used as the gradient magnitude |D_P U| in the
/// descent's convergence test.
double frobenius_norm(const Matrix& m);
/// Max-abs entry of a matrix.
double max_abs(const Matrix& m);

/// The same over the stored entries of a sparse matrix, in slot order (the
/// unstored entries are zeros and change neither).
double frobenius_norm(const SparseMatrix& m);
double max_abs(const SparseMatrix& m);

}  // namespace mocos::linalg
