#pragma once

#include "src/linalg/matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::linalg {

/// Numerical health report of an LU factorization, filled in whether or not
/// the factorization succeeded. `rcond_estimate` is the cheap pivot-ratio
/// proxy min|u_kk| / max|u_kk| — an upper bound on 1/κ that costs nothing
/// extra; values near 0 flag a near-singular system even when every pivot
/// cleared the hard threshold.
struct LuDiagnostics {
  double min_pivot = 0.0;   // smallest |u_kk| encountered
  double max_pivot = 0.0;   // largest |u_kk| encountered
  double rcond_estimate = 0.0;
  /// Column where factorization broke down; npos when it completed.
  std::size_t failed_column = npos;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  bool completed() const { return failed_column == npos; }
};

/// LU decomposition with partial (row) pivoting: PA = LU.
///
/// This is the workhorse behind the fundamental-matrix inversion
/// Z = (I - P + W)^(-1) and all linear solves in the library. Factor once,
/// then solve against many right-hand sides (each column of the identity for
/// an explicit inverse). The elimination and the triangular solves run over
/// row pointers into the packed factors.
class LuDecomposition {
 public:
  /// An empty decomposition (size 0): the slot try_refactor() fills.
  LuDecomposition() = default;

  /// Factors `a` (must be square). Throws std::invalid_argument for
  /// non-square input and std::runtime_error if the matrix is singular to
  /// working precision.
  explicit LuDecomposition(Matrix a);

  /// Non-throwing factorization: returns kSizeMismatch for non-square input
  /// and kSingularMatrix (message carrying the failing column and pivot
  /// magnitude) when a pivot underflows, instead of throwing. The returned
  /// decomposition exposes diagnostics() either way a caller obtains it.
  [[nodiscard]] static util::StatusOr<LuDecomposition> try_factor(Matrix a);

  /// The in-place form of try_factor: `fill(a)` writes the n×n matrix to
  /// factor, row-major, into `a`, which is this decomposition's own storage
  /// (its allocation kept whenever it is large enough), and the factors
  /// replace it there. Returns try_factor's statuses; after a failure the
  /// decomposition holds no usable factors until the next success.
  template <class Fill>
  [[nodiscard]] util::Status try_refactor(std::size_t n, Fill&& fill) {
    lu_.resize(n, n);
    fill(lu_.data());
    return factor();
  }

  std::size_t size() const { return lu_.rows(); }

  /// Pivot magnitudes and the condition-number proxy observed while
  /// factoring.
  const LuDiagnostics& diagnostics() const { return diag_; }

  /// ||A||_1 · ||A^-1||_1, computed on demand from the factors (||A||_1 from
  /// the product LU, ||A^-1||_1 from n triangular solves). The exact 1-norm
  /// condition number — use in tests and offline diagnostics, not
  /// per-iteration hot paths.
  [[nodiscard]] double condition_number_1norm() const;

  /// Solves A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves Aᵀ x = b with the same factors (Uᵀ, then Lᵀ, then the row
  /// permutation undone), so one factorization serves both sides.
  [[nodiscard]] Vector solve_transposed(const Vector& b) const;

  /// solve_transposed() into caller-owned buffers: `x` receives the
  /// solution and `work` is scratch, each resized to size() (no allocation
  /// once they are that large). Neither may alias `b`.
  void solve_transposed_into(const Vector& b, Vector& x, Vector& work) const;

  /// Solves A X = B column-by-column.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Explicit inverse (solves against the identity).
  [[nodiscard]] Matrix inverse() const;

  /// det(A), including the pivot sign.
  [[nodiscard]] double determinant() const;

 private:
  /// Factors lu_ in place; fills diag_ and returns a non-ok status instead
  /// of throwing.
  util::Status factor();

  Matrix lu_;                      // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;  // row permutation
  int pivot_sign_ = 1;
  LuDiagnostics diag_;
};

/// One-shot helpers.
[[nodiscard]] Vector solve(const Matrix& a, const Vector& b);
[[nodiscard]] Matrix inverse(const Matrix& a);
[[nodiscard]] double determinant(const Matrix& a);

/// Non-throwing one-shot solve/inverse built on try_factor.
[[nodiscard]] util::StatusOr<Vector> try_solve(const Matrix& a,
                                               const Vector& b);
[[nodiscard]] util::StatusOr<Matrix> try_inverse(const Matrix& a);

}  // namespace mocos::linalg
