#pragma once

#include <vector>

#include "src/cost/cost_term.hpp"
#include "src/sensing/coverage_tensors.hpp"

namespace mocos::cost {

/// Information-capture objective (§III lists "amount of information
/// captured" among the extensible criteria; cf. the stochastic event capture
/// model of Bisnik et al. cited as [6]).
///
/// Events of interest occur at PoI i at rate λ_i; an (instantaneous) event
/// is captured iff the sensor covers i at that moment, which in the long run
/// happens with probability C̄_i (the coverage share, Eq. 2). The expected
/// capture rate is therefore
///
///   J = Σ_i λ_i C̄_i,   C̄_i = N_i / D,
///   N_i = Σ_{j,k} π_j p_jk T_jk,i,   D = Σ_{j,k} π_j p_jk T_jk,
///
/// and the term contributes U_J = −γ·J so that minimizing the composite
/// cost maximizes capture. N_i and D are sensing::coverage_sums over the
/// coverage entries and the durations on P's pattern. Unlike the
/// coverage-deviation term, this is a ratio of two bilinear forms in
/// (π, P), so its partials carry quotient terms.
class InformationCaptureTerm final : public CostTerm {
 public:
  /// `rates` are the per-PoI event rates λ_i (non-negative); γ > 0 scales
  /// the objective against the others.
  InformationCaptureTerm(const sensing::CoverageTensors& tensors,
                         std::vector<double> rates, double gamma);

  std::string_view name() const override { return "information_capture"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  /// Expected capture rate J at the given chain (before the −γ weighting).
  double capture_rate(const markov::ChainAnalysis& chain) const;

 private:
  double capture_rate(const sensing::CoverageSums& sums) const;

  std::vector<std::vector<sensing::CoverageEntry>> entries_;  // T_jk,i
  linalg::SparseMatrix durations_;                                   // T_jk
  std::vector<double> rates_;
  double gamma_;
};

}  // namespace mocos::cost
