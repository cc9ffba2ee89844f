#include "src/markov/solve_policy.hpp"

namespace mocos::markov {

bool sparse_path_enabled(const linalg::Matrix& p) {
  const std::size_t n = p.rows();
  if (n < kSparseAutoMinSize) return false;
  std::size_t nonzeros = 0;
  const double* data = p.data();
  const std::size_t total = n * p.cols();
  for (std::size_t i = 0; i < total; ++i)
    // mocos-lint: allow(float-eq) — structural zeros are stored exactly
    if (data[i] != 0.0) ++nonzeros;
  return static_cast<double>(nonzeros) <=
         kSparseAutoMaxDensity * static_cast<double>(total);
}

bool routes_sparse(SolvePolicy policy, const linalg::Matrix& p) {
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
