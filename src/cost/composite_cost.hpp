#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cost/cost_term.hpp"

namespace mocos::cost {

/// Weighted multi-objective cost U_ε: the sum of its terms. The term weights
/// (α_i, β_i, γ, ...) live inside the terms themselves; this class only sums
/// values and partials and hands the result to the chain rule.
class CompositeCost {
 public:
  CompositeCost() = default;

  CompositeCost& add(std::unique_ptr<CostTerm> term);
  std::size_t num_terms() const { return terms_.size(); }
  const CostTerm& term(std::size_t i) const;

  /// True when any term reads Z: the analysis level the cost needs.
  bool needs_fundamental() const;
  markov::AnalysisLevel analysis_level() const {
    return needs_fundamental() ? markov::AnalysisLevel::kFundamental
                               : markov::AnalysisLevel::kStationary;
  }

  /// Total cost at an analyzed chain; +infinity if any term diverges (e.g.
  /// barrier at the boundary).
  double value(const markov::ChainAnalysis& chain) const;

  /// Convenience: analyzes the chain internally (markov::try_analyze_chain,
  /// at analysis_level()); a failed analysis throws util::StatusError.
  double value(const markov::TransitionMatrix& p) const;

  /// Sum of per-term partials (∂U/∂π, ∂U/∂Z, ∂U/∂P).
  Partials partials(const markov::ChainAnalysis& chain) const;

  /// As partials(), but clears and refills a caller-owned buffer (which must
  /// match the chain's size, with ∂U/∂P on chain.p's pattern) — no
  /// per-probe allocations in gradient loops. A buffer built without ∂U/∂Z
  /// serves a cost that does not need Z.
  void partials_into(const markov::ChainAnalysis& chain, Partials& out) const;

  /// Per-term breakdown, for reporting.
  std::vector<std::pair<std::string, double>> breakdown(
      const markov::ChainAnalysis& chain) const;

 private:
  std::vector<std::unique_ptr<CostTerm>> terms_;
};

}  // namespace mocos::cost
