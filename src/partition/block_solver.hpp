#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/partition/spatial_partition.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/sparse/banded_lu.hpp"
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
  bool used_banded = false;      // the banded-LU rung factored A
  bool used_bicgstab = false;    // the iterative rung serves the solves
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

/// The sparse ladder's factorization of the resolvent system
/// A = I − P + 𝟙cᵀ. One factorization serves the stationary distribution
/// (one transposed solve), products G v with G = A⁻¹ (one solve each) and
/// the dense G (one solve per column). The rungs:
///  1. RCM reordering + banded LU of the anchored system B = I − P + e_{n−1}cᵀ
///     with one Sherman–Morrison correction (skipped when the bandwidth
///     exceeds the cap, demoted on factorization failure);
///  2. Jacobi-preconditioned BiCGSTAB on the full rank-one-corrected
///     operator, one Krylov solve per right-hand side.
/// A non-ok status from any member means the rung failed and the caller
/// should run the dense factorization.
class SparseResolvent {
 public:
  [[nodiscard]] static util::StatusOr<SparseResolvent> try_factor(
      const sparse::SparseMatrix& p, const linalg::Vector& c,
      const SparseAnalysisConfig& config = {},
      SparseSolveStats* stats = nullptr);

  /// π with πᵀ = cᵀG, normalized to unit mass: B⁻ᵀc on the banded rung
  /// (πᵀB = π_{n−1}cᵀ), Aᵀy = c on the iterative one. Non-finite results
  /// come back as kNonFiniteValue.
  [[nodiscard]] util::StatusOr<linalg::Vector> try_stationary() const;

  /// G v.
  [[nodiscard]] util::StatusOr<linalg::Vector> try_apply(
      const linalg::Vector& v) const;

  /// The dense resolvent G, columns fanned out over `ctx` into
  /// index-addressed slots (bit-identical for any --jobs).
  [[nodiscard]] util::StatusOr<linalg::Matrix> try_inverse(
      const runtime::ExecutionContext& ctx = {}) const;

 private:
  SparseResolvent() = default;

  /// Banded rung: G x = B⁻¹x − w(cᵀB⁻¹x)/denom, in RCM order.
  void banded_apply(linalg::Vector& x_perm) const;

  linalg::Vector c_;                // the reference row, caller's order
  sparse::SparseMatrix p_;          // iterative rung: the chain
  // Banded rung (empty lu_ on the iterative rung), all in RCM order.
  std::vector<std::size_t> perm_;   // RCM position -> caller index
  linalg::Vector c_perm_;
  std::optional<sparse::BandedResolventLu> lu_;
  linalg::Vector w_;                // B⁻¹(𝟙 − e_{n−1})
  double denom_ = 1.0;              // 1 + cᵀw
};

/// Sparsity-aware replacement for markov::try_analyze_chain: π from the
/// SparseResolvent's transposed solve, checked against an independent
/// estimate from the block A/D solve (sparse power iteration as its recovery
/// rung) to config.pi_agreement_tol; at AnalysisLevel::kFundamental also G,
/// then Z/R exactly as markov::try_resolvent_analysis derives them. Any
/// failure — including a cross-check disagreement — returns a Status so the
/// caller can fall back to the dense pipeline.
[[nodiscard]] util::StatusOr<markov::ChainAnalysis> try_sparse_analyze_chain(
    const markov::TransitionMatrix& p, const SparseAnalysisConfig& config = {},
    const runtime::ExecutionContext& ctx = {},
    SparseSolveStats* stats = nullptr,
    markov::AnalysisLevel level = markov::AnalysisLevel::kFundamental);

}  // namespace mocos::partition
