#pragma once

#include "src/cost/cost_term.hpp"
#include "src/sensing/coverage_tensors.hpp"

namespace mocos::cost {

/// Motion-energy objective (§VII "Energy cost"):
///
///   D = Σ_i π_i Σ_{j≠i} p_ij d_ij        (expected distance per transition)
///   U_D = ½ γ (D − target)²
///
/// With target = 0 this penalizes total movement (the paper's D² option);
/// a positive target *requires* a prescribed amount of patrol movement.
class EnergyTerm final : public CostTerm {
 public:
  EnergyTerm(const sensing::CoverageTensors& tensors, double gamma,
             double target = 0.0);

  std::string_view name() const override { return "energy"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  /// Expected travel distance per transition D at the given chain.
  double expected_distance(const markov::ChainAnalysis& chain) const;

 private:
  linalg::SparseMatrix distances_;  // d_jk on the problem's pattern
  double gamma_;
  double target_;
};

}  // namespace mocos::cost
