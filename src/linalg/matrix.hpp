#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace mocos::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Small and value-semantic by design: the Markov chains in this library have
/// at most a few dozen states, so an owning `std::vector` store with bounds
/// checking in debug paths beats any sparse or expression-template machinery.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Builds from nested braces: Matrix{{1,2},{3,4}}. All rows must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// All-ones square matrix (the paper's J).
  static Matrix ones(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diag(const Vector& d);
  /// Outer product column * row^T.
  static Matrix outer(const Vector& col, const Vector& row);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool is_square() const { return rows_ == cols_; }

  /// Entry (r, c); std::out_of_range past the shape. Inline, so a loop over
  /// entries costs its arithmetic plus one predictable compare per access.
  double& operator()(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) [[unlikely]]
      throw_index_out_of_range();
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) [[unlikely]]
      throw_index_out_of_range();
    return data_[r * cols_ + c];
  }

  /// Reshapes to rows × cols, keeping the allocation whenever it is large
  /// enough. The entries are unspecified afterwards: a caller that reuses
  /// the storage (LuDecomposition::try_refactor) writes every one of them.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Raw storage access for tight loops (row-major).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  Vector diagonal() const;
  Matrix transposed() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

  /// Matrix product; dimensions must agree.
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  std::string to_string(int precision = 6) const;

 private:
  /// The out-of-range throw, kept out of line and off the hot path.
  [[noreturn, gnu::cold]] static void throw_index_out_of_range();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A x
Vector mul(const Matrix& a, const Vector& x);
/// y = x^T A  (row vector times matrix, returned as a plain vector)
Vector mul(const Vector& x, const Matrix& a);

// Named vector arithmetic (free operators on std::vector would not be found
// by ADL outside this namespace, so the API is explicit instead).
double dot(const Vector& a, const Vector& b);
Vector vadd(Vector a, const Vector& b);
Vector vsub(Vector a, const Vector& b);
Vector vscale(Vector a, double s);

/// Frobenius inner product <A, B> = sum_ij A_ij B_ij — the inner product used
/// by the paper's dU/dt = <D_P U, Pdot>.
double frobenius_dot(const Matrix& a, const Matrix& b);

/// True when |A_ij - B_ij| <= tol for all entries (shapes must match).
bool approx_equal(const Matrix& a, const Matrix& b, double tol);
bool approx_equal(const Vector& a, const Vector& b, double tol);

}  // namespace mocos::linalg
