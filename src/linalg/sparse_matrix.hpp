#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "src/linalg/matrix.hpp"

namespace mocos::linalg {

/// One (row, col, value) coordinate entry used to assemble a SparseMatrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class SparsityPattern;

/// Patterns are immutable and shared: a transition matrix, the descent
/// direction, the gradient and the durations of one problem all keep their
/// values on one pattern object.
using Pattern = std::shared_ptr<const SparsityPattern>;

/// A reverse Cuthill–McKee ordering of a square pattern: a
/// bandwidth-reducing permutation that makes geometric chains nearly
/// banded for the direct sparse resolvent rung.
struct BandOrdering {
  std::vector<std::size_t> perm;      // band position -> original index
  std::vector<std::size_t> position;  // original index -> band position
  /// max |position[i] − position[j]| over the stored entries (i, j).
  std::size_t bandwidth = 0;
};

/// The CSR structure of a matrix: row offsets, strictly increasing column
/// indices within each row, and each row's diagonal slot. A slot is an
/// index into the value array of any SparseMatrix on this pattern, so every
/// loop over a pattern runs in row-major order. The full pattern of an
/// M×N matrix stores all M·N entries (slot i·N + j).
class SparsityPattern {
 public:
  /// "Not stored".
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Every entry of a rows × cols matrix.
  static Pattern full(std::size_t rows, std::size_t cols);
  /// Row i stores the columns rows[i] (strictly increasing, each < cols);
  /// std::invalid_argument otherwise.
  static Pattern from_rows(std::size_t cols,
                           const std::vector<std::vector<std::size_t>>& rows);

  SparsityPattern(const SparsityPattern&) = delete;
  SparsityPattern& operator=(const SparsityPattern&) = delete;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return col_indices_.size(); }
  /// Every entry stored.
  [[nodiscard]] bool is_full() const { return nnz() == rows_ * cols_; }

  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const {
    return row_offsets_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const {
    return col_indices_;
  }
  /// Slot of (i, i), or npos.
  [[nodiscard]] std::size_t diagonal(std::size_t i) const {
    return diagonal_[i];
  }
  /// Slot of (i, j), or npos: O(1) on a full pattern, a binary search
  /// within the row otherwise. std::out_of_range past the shape.
  [[nodiscard]] std::size_t find(std::size_t i, std::size_t j) const;

  /// Structural equality: the same shape and the same stored entries.
  /// Full patterns of one shape compare equal in O(1).
  [[nodiscard]] bool operator==(const SparsityPattern& other) const;
  /// True when every entry `sub` stores is stored here as well.
  [[nodiscard]] bool contains(const SparsityPattern& sub) const;

  /// The RCM ordering of the symmetrized pattern (square patterns only;
  /// std::invalid_argument otherwise). Components are traversed in index
  /// order and neighbours visited by (degree, index), so it is
  /// deterministic. Computed on first use and kept: every chain on one
  /// pattern factors in the same order.
  [[nodiscard]] const BandOrdering& band_ordering() const;

 private:
  SparsityPattern(std::size_t rows, std::size_t cols,
                  std::vector<std::size_t> row_offsets,
                  std::vector<std::size_t> col_indices);

  friend class SparseMatrix;  // its factories derive patterns from data

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // rows_ + 1
  std::vector<std::size_t> col_indices_;  // nnz
  std::vector<std::size_t> diagonal_;     // rows_, npos when absent
  mutable std::once_flag ordering_once_;
  mutable BandOrdering ordering_;
};

/// Values on a SparsityPattern: the library's one compressed-sparse-row
/// matrix. The transition matrix, the descent direction, the gradient,
/// ∂U/∂P, the durations T_jk and the distances d_jk are all SparseMatrix
/// values on a problem's pattern; the sparse resolvent ladder factors it
/// directly.
///
/// Invariants: the pattern's (sorted rows, one slot per stored entry) and
/// values().size() == nnz(). Values on a given pattern may be exact zeros
/// (d_jj = 0); only the factories that derive a pattern from data
/// (from_triplets, from_dense) drop them.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// `pattern`'s entries, each `fill`.
  explicit SparseMatrix(Pattern pattern, double fill = 0.0);
  /// `values` on `pattern` (std::invalid_argument on a size mismatch).
  SparseMatrix(Pattern pattern, std::vector<double> values);

  /// Builds from coordinate entries. Duplicate (row, col) pairs are summed;
  /// pairs whose sum is exactly zero are dropped. Throws
  /// std::invalid_argument on out-of-range indices or non-finite values.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> entries);

  /// Compresses a dense matrix, dropping entries with |value| <= drop_tol
  /// (default: only exact zeros are dropped, so the round-trip through
  /// to_dense() is exact). std::invalid_argument on non-finite entries.
  static SparseMatrix from_dense(const Matrix& m, double drop_tol = 0.0);

  /// Dense copy; exact (every stored value is placed verbatim).
  [[nodiscard]] Matrix to_dense() const;

  [[nodiscard]] std::size_t rows() const {
    return pattern_ ? pattern_->rows() : 0;
  }
  [[nodiscard]] std::size_t cols() const {
    return pattern_ ? pattern_->cols() : 0;
  }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return rows() == 0; }
  /// nnz / (rows*cols); 0 for an empty matrix.
  [[nodiscard]] double density() const;

  /// The shared pattern (null for a default-constructed matrix).
  [[nodiscard]] const Pattern& shared_pattern() const { return pattern_; }
  [[nodiscard]] const SparsityPattern& pattern() const { return *pattern_; }
  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const {
    return pattern_->row_offsets();
  }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const {
    return pattern_->col_indices();
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] std::vector<double>& values() { return values_; }

  /// Entry (i, j); 0.0 when not stored.
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const;
  /// Stored entry (i, j); std::out_of_range when the pattern lacks it.
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j);
  /// As the const operator(), std::out_of_range past the shape.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// y = A x (sizes must match; y is overwritten).
  void matvec(const Vector& x, Vector& y) const;
  [[nodiscard]] Vector matvec(const Vector& x) const;

  /// y = Aᵀ x. Runs over the CSR rows scattering into y, so it is
  /// deterministic and needs no transposed copy.
  void transpose_matvec(const Vector& x, Vector& y) const;
  [[nodiscard]] Vector transpose_matvec(const Vector& x) const;

  /// Explicit transpose (CSR of Aᵀ), for kernels that iterate columns.
  [[nodiscard]] SparseMatrix transposed() const;

  /// Entrywise arithmetic on one pattern (std::invalid_argument when the
  /// patterns differ).
  SparseMatrix& operator+=(const SparseMatrix& rhs);
  SparseMatrix& operator-=(const SparseMatrix& rhs);
  SparseMatrix& operator*=(double s);
  friend SparseMatrix operator+(SparseMatrix a, const SparseMatrix& b) {
    return a += b;
  }
  friend SparseMatrix operator-(SparseMatrix a, const SparseMatrix& b) {
    return a -= b;
  }
  friend SparseMatrix operator*(SparseMatrix a, double s) { return a *= s; }

  /// Pattern first, then the values entry by entry.
  friend bool operator==(const SparseMatrix& a, const SparseMatrix& b);

 private:
  Pattern pattern_;
  std::vector<double> values_;
};

/// Σ a_e b_e over one pattern's slots, in slot order.
[[nodiscard]] double frobenius_dot(const SparseMatrix& a,
                                   const SparseMatrix& b);
/// Σ a_ij b_ij over a's stored entries, in slot order: the pairing
/// <D_P U, Ṗ> of a gradient on P's pattern with a dense direction.
[[nodiscard]] double frobenius_dot(const SparseMatrix& a, const Matrix& b);

}  // namespace mocos::linalg
