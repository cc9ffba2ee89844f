#pragma once

#include <vector>

#include "src/cost/cost_term.hpp"
#include "src/sensing/coverage_tensors.hpp"

namespace mocos::cost {

/// Coverage-time deviation objective (the α part of Eq. 4/9):
///
///   U_cov = Σ_i ½ α_i g_i²,   g_i = Σ_{j,k} π_j p_jk (T_jk,i − Φ_i T_jk).
///
/// g_i measures, per unit of expected transition, how far PoI i's covered
/// time runs above/below its target share of the total elapsed time. It
/// splits into the coverage sum over PoI i's entries minus Φ_i · Ē with
/// Ē = Σ π_j p_jk T_jk (sensing::coverage_sums) — exact for every P, with no
/// O(M³) object anywhere and O(nnz) work per evaluation.
class CoverageDeviationTerm final : public CostTerm {
 public:
  /// `alphas` are the per-PoI weights α_i (all equal in the paper's §VI).
  CoverageDeviationTerm(const sensing::CoverageTensors& tensors,
                        const std::vector<double>& targets,
                        std::vector<double> alphas);

  /// Uniform-weight convenience (α_i = alpha for all i).
  CoverageDeviationTerm(const sensing::CoverageTensors& tensors,
                        const std::vector<double>& targets, double alpha);

  std::string_view name() const override { return "coverage_deviation"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  /// The per-PoI discrepancies g_i at the given chain — also what the ΔC
  /// metric (Eq. 12) is built from.
  linalg::Vector discrepancies(const markov::ChainAnalysis& chain) const;

 private:
  std::vector<std::vector<sensing::CoverageEntry>> entries_;
  linalg::SparseMatrix durations_;
  std::vector<double> targets_;
  std::vector<double> alphas_;
};

/// Adds Σ_i w_i ∂N_i/∂(π, P) + c ∂Ē/∂(π, P) for the sensing::coverage_sums
/// N_i (over PoI i's entries) and Ē (over P's stored entries):
///   ∂N_i/∂π_j = Σ_k p_jk T_jk,i,   ∂N_i/∂p_jk = π_j T_jk,i,
/// and the same for Ē with T_jk. ∂U/∂P is only kept on P's pattern.
void add_coverage_sums_partials(
    const std::vector<std::vector<sensing::CoverageEntry>>& entries,
    const linalg::SparseMatrix& durations, const markov::ChainAnalysis& chain,
    const std::vector<double>& w, double c, Partials& out);

}  // namespace mocos::cost
