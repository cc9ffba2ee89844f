#pragma once

#include <cstddef>
#include <vector>

#include "src/sparse/sparse_matrix.hpp"

namespace mocos::partition {

/// Reverse Cuthill–McKee ordering of the symmetrized pattern of P: a
/// bandwidth-reducing permutation (new index -> original index) that makes
/// geometric chains nearly banded for the direct sparse resolvent rung.
/// Components are traversed in index order; within the BFS, neighbors are
/// visited sorted by (degree, index) — fully deterministic.
[[nodiscard]] std::vector<std::size_t> bandwidth_ordering(
    const sparse::SparseMatrix& p);

/// Bandwidth of P under a permutation: max |σ⁻¹(i) − σ⁻¹(j)| over stored
/// entries (σ maps new -> original index).
[[nodiscard]] std::size_t pattern_bandwidth(
    const sparse::SparseMatrix& p, const std::vector<std::size_t>& perm);

}  // namespace mocos::partition
