#pragma once

#include "src/cost/cost_term.hpp"

namespace mocos::cost {

/// Entropy objective (§VII "Entropy of Markov chain"): contributes
///
///   U_H = −w H,   H = −Σ_i π_i Σ_j p_ij ln p_ij,
///
/// so that minimizing the composite cost maximizes the schedule's entropy
/// rate with weight w — the paper's "U − εH" construction that makes the
/// patrol unpredictable to smart adversaries.
class EntropyTerm final : public CostTerm {
 public:
  explicit EntropyTerm(double weight);

  std::string_view name() const override { return "entropy"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

 private:
  double weight_;
};

}  // namespace mocos::cost
