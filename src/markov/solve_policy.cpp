#include "src/markov/solve_policy.hpp"

namespace mocos::markov {

bool sparse_path_enabled(const linalg::SparseMatrix& p) {
  const std::size_t n = p.rows();
  if (n < kSparseAutoMinSize) return false;
  return static_cast<double>(p.nnz()) <=
         kSparseAutoMaxDensity * static_cast<double>(n * p.cols());
}

bool routes_sparse(SolvePolicy policy, const linalg::SparseMatrix& p) {
  switch (policy) {
    case SolvePolicy::kAuto:
      return sparse_path_enabled(p);
    case SolvePolicy::kSparse:
      return p.rows() >= kSparseForcedMinSize;
    case SolvePolicy::kDense:
    case SolvePolicy::kPowerIteration:
      return false;
  }
  return false;
}

}  // namespace mocos::markov
