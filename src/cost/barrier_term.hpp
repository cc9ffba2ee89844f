#pragma once

#include "src/cost/cost_term.hpp"

namespace mocos::cost {

/// Penalization (barrier) terms of Eq. 9 keeping every p_ij strictly inside
/// (0, 1):
///
///   + Σ_ij −(1/ε) ln(p_ij)   (ε − p_ij)²     for p_ij ≤ ε
///   + Σ_ij −(1/ε) ln(1−p_ij) (1 − ε − p_ij)² for p_ij ≥ 1 − ε
///
/// (the paper writes both with sgn(·) gates; each piece is zero at the gate
/// boundary and diverges to +∞ as p_ij → 0 or 1, which — combined with the
/// line-search step bounds — preserves ergodicity for the whole run).
class BarrierTerm final : public CostTerm {
 public:
  /// `epsilon` is the paper's ε (0 < ε < 1/2); experiments use 1e-4.
  explicit BarrierTerm(double epsilon);

  std::string_view name() const override { return "barrier"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  double epsilon() const { return epsilon_; }

  /// Scalar barrier for a single probability — exposed for unit tests.
  double entry_value(double p) const;
  double entry_derivative(double p) const;

 private:
  double epsilon_;
};

}  // namespace mocos::cost
