#pragma once

#include <cstddef>

#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/partition/spatial_partition.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/sparse/sparse_matrix.hpp"
#include "src/util/status.hpp"

namespace mocos::partition {

/// Tuning knobs for the sparse chain analysis (block stationary solve +
/// sparse resolvent ladder). Defaults satisfy the acceptance contract:
/// π/R agreement with the dense pipeline to <= 1e-8 on weakly-coupled maps.
struct SparseAnalysisConfig {
  PartitionConfig partition;
  /// Aggregation/disaggregation convergence gate on ‖πP − π‖∞.
  double ad_tolerance = 1e-12;
  /// A/D sweeps before giving up (kNotErgodic → dense fallback).
  std::size_t max_ad_sweeps = 200;
  /// The two independent stationary estimates (resolvent column sums vs
  /// block A/D) must agree to this ∞-norm gap or the whole sparse analysis
  /// is rejected in favor of the dense pipeline.
  double pi_agreement_tol = 1e-8;
  /// The banded direct rung only runs when the RCM bandwidth b satisfies
  /// b <= n * bandwidth_cap_fraction; beyond that O(n·b²) loses to the
  /// iterative rung.
  double bandwidth_cap_fraction = 1.0 / 3.0;
};

/// Diagnostics of one sparse analysis, filled in best-effort even on
/// failure (tests and the metrics exporter read these).
struct SparseSolveStats {
  std::size_t blocks = 0;        // partition size used for A/D
  std::size_t bandwidth = 0;     // RCM bandwidth of the pattern
  std::size_t ad_sweeps = 0;     // A/D sweeps executed
  double ad_residual = 0.0;      // final ‖πP − π‖∞ of the A/D iterate
  double off_block_mass = 0.0;   // max_off_block_row_mass of the partition
  double pi_gap = 0.0;           // ‖π_G − π_AD‖∞ cross-check gap
  bool used_banded = false;      // direct banded-LU rung produced G
  bool used_bicgstab = false;    // iterative rung produced G
  bool used_power_crosscheck = false;  // A/D failed; power iteration stood in
};

/// Koury–McAllister–Stewart iterative aggregation/disaggregation for the
/// stationary distribution of a block-partitioned sparse chain. Each sweep
/// solves the K×K coupling chain exactly, then refreshes every block's
/// conditional distribution through its prefactored (I − P_kkᵀ) system;
/// block solves fan out over `ctx` (bit-identical for any --jobs). Converges
/// fast exactly when the partition cuts only weak coupling. Failure modes:
///  - kInvalidConfig: fewer than two blocks (nothing to aggregate);
///  - kSingularMatrix: a decoupled block made I − P_kk singular;
///  - kNotErgodic: no convergence within max_ad_sweeps, or mass went
///    negative/non-finite. Callers fall back to the dense pipeline.
[[nodiscard]] util::StatusOr<linalg::Vector> try_block_stationary(
    const sparse::SparseMatrix& p, const Blocks& blocks,
    const SparseAnalysisConfig& config = {},
    const runtime::ExecutionContext& ctx = {},
    SparseSolveStats* stats = nullptr);

/// Sparse resolvent G = (I − P + 𝟙cᵀ)⁻¹ via the ladder:
///  1. RCM reordering + banded LU of the anchored system B = I − P + e_{n−1}cᵀ
///     followed by one Sherman–Morrison correction (skipped when the
///     bandwidth exceeds the cap, demoted on factorization failure);
///  2. per-column BiCGSTAB with Jacobi preconditioning on the full
///     rank-one-corrected operator.
/// Columns fan out over `ctx` into index-addressed slots (bit-identical for
/// any --jobs). A non-ok status means both rungs failed and the caller
/// should run the dense factorization.
[[nodiscard]] util::StatusOr<linalg::Matrix> try_sparse_resolvent(
    const sparse::SparseMatrix& p, const linalg::Vector& c,
    const SparseAnalysisConfig& config = {},
    const runtime::ExecutionContext& ctx = {},
    SparseSolveStats* stats = nullptr);

/// Sparsity-aware replacement for markov::try_analyze_chain: computes G
/// through try_sparse_resolvent, π independently through the block A/D solve
/// (sparse power iteration as its recovery rung), cross-checks the two
/// estimates to config.pi_agreement_tol, and derives Z/R from the
/// resolvent exactly as markov::try_resolvent_analysis does. Any failure —
/// including a cross-check disagreement — returns a Status so the caller
/// can fall back to the dense pipeline.
[[nodiscard]] util::StatusOr<markov::ChainAnalysis> try_sparse_analyze_chain(
    const markov::TransitionMatrix& p, const SparseAnalysisConfig& config = {},
    const runtime::ExecutionContext& ctx = {},
    SparseSolveStats* stats = nullptr);

}  // namespace mocos::partition
