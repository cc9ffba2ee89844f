#pragma once

#include <vector>

#include "src/cost/cost_term.hpp"

namespace mocos::cost {

/// Expected captured-event fraction under Poisson event arrivals (the
/// persistent-monitoring objective of Yu/Karaman/Rus, arXiv:1309.6041,
/// transplanted onto the paper's Markov patrol schedules).
///
/// Events of interest arrive at PoI i as a Poisson process with rate λ_i
/// (per transition) and persist for a window of d transitions (the config's
/// `capture_duration`). An event is captured iff the sensor reaches PoI i
/// while the event is live. With the chain in stationarity at the arrival
/// instant, the capture probability decomposes into an immediate-capture
/// atom and a window term driven by the residual hitting time of i:
///
///   F_i = π_i + (1 − π_i)·(1 − exp(−d / w_i)),
///   w_i = W_i / (1 − π_i),   W_i = z_ii / π_i − 1,
///
/// where W_i = Σ_j π_j R_ji is the mean first-passage time to i from a
/// stationary start (the random-target identity — exactly the paper's Eq. 8
/// machinery, no new solver math), and the conditional hitting time given a
/// miss at arrival is approximated as exponential with mean w_i. The
/// exponentialization is the term's documented modeling assumption; it is
/// asymptotically exact for rarely-visited PoIs and is cross-checked against
/// the `sim::EventCaptureSimulator` Monte Carlo in the test suite.
///
/// The rate-weighted expected captured fraction and the term value are
///
///   F = Σ_i λ_i F_i / Σ_i λ_i,   U_cap = weight · (1 − F),
///
/// so minimizing the composite cost maximizes the captured-event fraction.
/// Unlike InformationCaptureTerm this needs no coverage tensors — only
/// (π, Z).
class EventCaptureTerm final : public CostTerm {
 public:
  /// `rates` are per-PoI arrival rates λ_i (non-negative, at least one
  /// positive); `duration` d > 0 is the event window in transitions;
  /// `weight` > 0 scales the objective against the others.
  EventCaptureTerm(std::vector<double> rates, double duration, double weight);

  std::string_view name() const override { return "event_capture"; }
  bool needs_fundamental() const override { return true; }
  double value(const markov::ChainAnalysis& chain) const override;
  void accumulate_partials(const markov::ChainAnalysis& chain,
                           Partials& out) const override;

  /// Per-PoI capture probabilities F_i.
  linalg::Vector per_poi_capture(const markov::ChainAnalysis& chain) const;

  /// Rate-weighted expected captured-event fraction F ∈ (0, 1).
  double capture_fraction(const markov::ChainAnalysis& chain) const;

  /// Mean first-passage time to i from a stationary start,
  /// W_i = Σ_j π_j R_ji = z_ii/π_i − 1 (in transitions).
  static double mean_hitting_from_stationarity(
      const markov::ChainAnalysis& chain, std::size_t i);

  double duration() const { return duration_; }
  const std::vector<double>& rates() const { return rates_; }

 private:
  std::vector<double> rates_;
  double duration_;
  double weight_;
  double rate_sum_;
};

}  // namespace mocos::cost
