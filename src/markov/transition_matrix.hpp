#pragma once

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/util/rng.hpp"

namespace mocos::markov {

/// Row-stochastic transition matrix of the scheduling Markov chain
/// (the paper's P = {p_ij}; §III-A), stored as values on a CSR pattern: the
/// transitions the chain may take. An unrestricted chain's pattern holds
/// all M² entries; a support-restricted one only its support, so a
/// transition off the pattern is a structural zero that no step can open.
///
/// Invariants validated at construction, over the stored entries:
///  - square, size >= 2;
///  - entries in [-tol, 1+tol], clamped into [0,1];
///  - each row sums to 1 within tol, then exactly renormalized.
class TransitionMatrix {
 public:
  /// The validation tolerance unless a constructor is given another.
  static constexpr double kTolerance = 1e-8;

  /// From a dense matrix; the pattern is its nonzeros after validation.
  explicit TransitionMatrix(linalg::Matrix m, double tol = kTolerance);
  /// Values on a given pattern, which stays the pattern even where a value
  /// is an exact zero.
  explicit TransitionMatrix(linalg::SparseMatrix m,
                            double tol = kTolerance);

  /// The paper's V1 initial condition: p_ij = 1/M for all i,j.
  static TransitionMatrix uniform(std::size_t n);

  /// The paper's V2 random initial condition: within each row, entry j < M-1
  /// gets rand * rem / M where rem is the probability still unassigned, and
  /// the last column absorbs the remainder.
  static TransitionMatrix random(std::size_t n, util::Rng& rng);

  std::size_t size() const { return m_.rows(); }
  /// p_ij; 0 off the pattern.
  double operator()(std::size_t i, std::size_t j) const { return m_(i, j); }
  /// The stored entries: CSR values on the pattern.
  const linalg::SparseMatrix& csr() const { return m_; }
  const linalg::SparsityPattern& pattern() const { return m_.pattern(); }
  /// Row i as a dense vector (the simulators sample from it).
  linalg::Vector row(std::size_t i) const;
  /// A dense M×M copy, for the dense-only algorithms (eigenvalues, the
  /// dense Z, printing).
  linalg::Matrix to_dense() const { return m_.to_dense(); }

  /// Rewrites the stored values in place, row by row: `fill(i, row)` writes
  /// row i's stored entries (row[k] is its k-th entry on the pattern), and
  /// that row is then clamped, checked and renormalized exactly as the
  /// constructor does at kTolerance before the next row is written. Keeps
  /// the pattern and the allocation. Throws std::invalid_argument as the
  /// constructor does, leaving the rows up to the failing one rewritten.
  template <class RowFill>
  void refill_rows(RowFill&& fill) {
    const auto& offsets = m_.row_offsets();
    double* values = m_.values().data();
    for (std::size_t i = 0; i < size(); ++i) {
      fill(i, values + offsets[i]);
      validate_row(i, kTolerance);
    }
  }

  /// Smallest entry, zeros off the pattern included — the barrier terms
  /// keep the stored ones strictly positive.
  double min_entry() const;

  /// The same pattern (checked first) and the same values.
  friend bool operator==(const TransitionMatrix& a,
                         const TransitionMatrix& b) {
    return a.m_ == b.m_;
  }

 private:
  /// Clamps and renormalizes the stored entries row by row.
  void validate(double tol);
  /// validate() of row i alone.
  void validate_row(std::size_t i, double tol);

  linalg::SparseMatrix m_;
};

}  // namespace mocos::markov
