#pragma once

#include "src/cost/cost_term.hpp"

namespace mocos::cost {

/// Minimax (worst-PoI) exposure objective via a log-sum-exp smooth max
/// (the smooth-minimax coverage formulation of Pinto et al.,
/// arXiv:2009.11386, dropped into the paper's composite cost):
///
///   U_mm = weight · smax_β(Ē),
///   smax_β(Ē) = (1/β) log Σ_i exp(β Ē_i)  ∈  [max_i Ē_i,
///                                             max_i Ē_i + log(M)/β],
///
/// with the per-PoI mean exposures Ē_i of Eq. 3 in ExposureTerm's closed
/// form, so the term needs π and P only. As the temperature β grows
/// the term converges to the hard worst-case max_i Ē_i while staying C^∞,
/// so the steepest-descent machinery applies unchanged; β is annealable
/// stage-wise via the `smoothmax_beta_final` / `smoothmax_anneal_stages`
/// config keys (see cli.hpp). Partials chain through the shared Ē_i
/// formulas of ExposureTerm with the softmax weights as outer derivative:
///
///   ∂U_mm/∂Ē_i = weight · σ_i,   σ_i = exp(β Ē_i) / Σ_j exp(β Ē_j).
class MinimaxExposureTerm final : public CostTerm {
 public:
  /// `weight` > 0 scales the objective; `beta` > 0 is the smooth-max
  /// temperature (larger = closer to the hard max, stiffer gradients).
  MinimaxExposureTerm(double weight, double beta);

  std::string_view name() const override { return "minimax_exposure"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  /// smax_β(Ē) at the analyzed chain (before the weight).
  double smooth_max(const markov::ChainAnalysis& chain) const;

  /// Softmax weights σ_i (non-negative, summing to 1) — the active-PoI
  /// attribution the sensitivity report surfaces.
  linalg::Vector softmax_weights(const markov::ChainAnalysis& chain) const;

  double beta() const { return beta_; }

 private:
  double weight_;
  double beta_;
};

}  // namespace mocos::cost
