#pragma once

#include <cstddef>

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::sparse {

/// The resolvent-style system the Markov engine solves everywhere:
///
///   A = I − P + u cᵀ
///
/// with P sparse and the rank-one term applied implicitly (𝟙cᵀ is globally
/// dense, so materializing A would destroy sparsity; one extra dot product
/// per matvec keeps the operator O(nnz)). With u = 𝟙 and c = 𝟙/M this is
/// the descent's fixed-c resolvent (I − P + 𝟙cᵀ); with u = c = 𝟙
/// it is the dense stationary system B = I − Pᵀ + ones in transposed form.
struct ResolventOperator {
  const linalg::SparseMatrix* p = nullptr;  // not owned; must outlive the operator
  linalg::Vector u;                 // rank-one column
  linalg::Vector c;                 // rank-one row

  [[nodiscard]] std::size_t size() const { return p == nullptr ? 0 : p->rows(); }

  /// y = A x = x − P x + u (cᵀ x).
  void apply(const linalg::Vector& x, linalg::Vector& y) const;
  /// y = Aᵀ x = x − Pᵀ x + c (uᵀ x).
  void apply_transpose(const linalg::Vector& x, linalg::Vector& y) const;

  /// diag(A)_i = 1 − p_ii + u_i c_i — the Jacobi preconditioner diagonal.
  [[nodiscard]] linalg::Vector diagonal() const;
};

/// Convergence report for one Krylov solve, surfaced through Status messages
/// and the sparse-path metrics.
struct SolveDiagnostics {
  std::size_t iterations = 0;
  double residual = 0.0;  // final relative residual
  bool converged = false;
};

/// Jacobi-preconditioned BiCGSTAB on A x = b (or Aᵀ x = b with
/// `transpose`). Deterministic: a fixed sequence of matvecs, dots and
/// axpys — no pivot choices, no data-dependent reordering — so repeated
/// solves of the same system are bit-identical on any thread.
///
/// Status taxonomy: kSingularMatrix when the recurrence breaks down
/// (ρ or ω collapse — the resolvent is singular or nearly so),
/// kNonFiniteValue when the iteration produces NaN/inf, kNotErgodic when
/// 500 iterations pass without reaching a 1e-13 relative residual (the
/// caller's cue to drop a rung on the recovery ladder). `diag`, when
/// non-null, is filled in on every path including failures.
[[nodiscard]] util::StatusOr<linalg::Vector> try_solve_resolvent(
    const ResolventOperator& a, const linalg::Vector& b,
    SolveDiagnostics* diag = nullptr, bool transpose = false);

}  // namespace mocos::sparse
