#pragma once

#include <cstddef>

#include "src/linalg/sparse_matrix.hpp"

namespace mocos::markov {

/// Which route a chain solve takes. Every solver entry point that can route
/// (try_stationary_distribution, try_analyze_chain, try_resolvent_analysis)
/// takes one as an explicit argument; nothing else steers the choice.
/// Production code passes kAuto, and kPowerIteration on the descent
/// recovery ladder's demoted rung; kDense and kSparse exist for parity tests
/// and benches that need one route pinned.
enum class SolvePolicy {
  kAuto,            // sparse ladder when sparse_path_enabled(p), else dense
  kDense,           // dense direct solves only
  kSparse,          // sparse ladder wherever it is defined (M >= 8)
  kPowerIteration,  // dense power-iteration stationary solve; never sparse
};

/// The kAuto gate, a pure function of P's pattern: M >= 192 and at most a
/// quarter of the M² entries stored. Below that size the dense O(M³)
/// pipeline is already microseconds and the sparse machinery is pure
/// overhead (and small-map flows stay byte-identical to the dense pipeline).
[[nodiscard]] bool sparse_path_enabled(const linalg::SparseMatrix& p);

/// True when `policy` sends chain `p` to the sparse ladder: kAuto defers to
/// sparse_path_enabled, kSparse needs M >= kSparseForcedMinSize, kDense and
/// kPowerIteration never do. A sparse failure always falls back to dense.
[[nodiscard]] bool routes_sparse(SolvePolicy policy,
                                 const linalg::SparseMatrix& p);

/// The gate thresholds, exposed for tests and the docs.
inline constexpr std::size_t kSparseAutoMinSize = 192;
inline constexpr double kSparseAutoMaxDensity = 0.25;
inline constexpr std::size_t kSparseForcedMinSize = 8;

}  // namespace mocos::markov
