#pragma once

#include <vector>

#include "src/cost/cost_term.hpp"

namespace mocos::cost {

/// Exposure-time objective (the β part of Eq. 4/9):
///
///   U_exp = Σ_i ½ β_i Ē_i²,
///   Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii)           (Eq. 3)
///       = (1 − π_i) / (π_i (1 − p_ii)),
///
/// the closed form by Kac's return-time identity Σ_{j≠i} p_ij R_ji =
/// 1/π_i − 1 (one step out of i, then the passage back: R_ii = 1/π_i). The
/// term is therefore a function of (π, P) alone and needs no Z.
///
/// Ē_i is the expected length (in transitions) of a continuous interval
/// during which PoI i is out of the sensor's range, measured from the PoI
/// the sensor moves to right after leaving i, under the paper's simplifying
/// assumptions (pass-bys are not return visits; each transition takes one
/// time unit).
class ExposureTerm final : public CostTerm {
 public:
  explicit ExposureTerm(std::vector<double> betas);
  ExposureTerm(std::size_t n, double beta);

  std::string_view name() const override { return "exposure"; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  /// Per-PoI mean exposures Ē_i (Eq. 3) — also what the Ē metric (Eq. 13)
  /// is built from.
  linalg::Vector mean_exposures(const markov::ChainAnalysis& chain) const;

  /// Static helper so metrics code can reuse the formula without a term.
  static linalg::Vector compute_mean_exposures(
      const markov::ChainAnalysis& chain);

  /// Accumulates Σ_i g_i dĒ_i into `out`, where `dcost_dexposure[i]` = g_i is
  /// the outer derivative ∂U/∂Ē_i of whatever scalar U the caller built from
  /// the mean exposures. This factors the Ē_i partial formulas out of the
  /// quadratic exposure objective so other exposure-derived terms (e.g. the
  /// smooth-max MinimaxExposureTerm) reuse them instead of re-deriving. Only
  /// the π and P channels are written; ∂U/∂Z is left untouched.
  static void accumulate_weighted_exposure_partials(
      const markov::ChainAnalysis& chain,
      const linalg::Vector& dcost_dexposure, Partials& out);

 private:
  std::vector<double> betas_;
};

}  // namespace mocos::cost
