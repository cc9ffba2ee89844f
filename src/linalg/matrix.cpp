#include "src/linalg/matrix.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace mocos::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_)
      throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::ones(std::size_t n) { return Matrix(n, n, 1.0); }

Matrix Matrix::diag(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::outer(const Vector& col, const Vector& row) {
  Matrix m(col.size(), row.size());
  for (std::size_t i = 0; i < col.size(); ++i)
    for (std::size_t j = 0; j < row.size(); ++j) m(i, j) = col[i] * row[j];
  return m;
}

void Matrix::throw_index_out_of_range() {
  throw std::out_of_range("Matrix::operator()");
}

Vector Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

Vector Matrix::diagonal() const {
  if (!is_square()) throw std::logic_error("Matrix::diagonal: not square");
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + i];
  return out;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = data_[r * cols_ + c];
  return t;
}

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument(std::string("Matrix: shape mismatch in ") + op);
}
}  // namespace

Matrix& Matrix::operator+=(const Matrix& rhs) {
  require_same_shape(*this, rhs, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  require_same_shape(*this, rhs, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("Matrix: shape mismatch in product");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      // Exact on purpose: skipping exact zeros is a lossless sparsity
      // shortcut; skipping near-zeros would change the product.
      // mocos-lint: allow(float-eq)
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    oss << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      oss << std::setw(precision + 6) << data_[r * cols_ + c];
    }
    oss << (r + 1 == rows_ ? " ]" : "\n");
  }
  return oss.str();
}

Vector mul(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("mul(A,x): shape mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) y[i] += a(i, j) * x[j];
  return y;
}

Vector mul(const Vector& x, const Matrix& a) {
  if (a.rows() != x.size())
    throw std::invalid_argument("mul(x,A): shape mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    // Exact on purpose: lossless sparsity shortcut, as in operator* above.
    // mocos-lint: allow(float-eq)
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * a(i, j);
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Vector vadd(Vector a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("vadd: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Vector vsub(Vector a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("vsub: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

Vector vscale(Vector a, double s) {
  for (double& x : a) x *= s;
  return a;
}

double frobenius_dot(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "frobenius_dot");
  double s = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) s += pa[i] * pb[i];
  return s;
}

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i)
    if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
  return true;
}

bool approx_equal(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > tol) return false;
  return true;
}

}  // namespace mocos::linalg
