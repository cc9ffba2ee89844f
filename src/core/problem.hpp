#pragma once

#include <memory>
#include <optional>

#include "src/cost/composite_cost.hpp"
#include "src/cost/metrics.hpp"
#include "src/geometry/topology.hpp"
#include "src/sensing/coverage_tensors.hpp"
#include "src/sensing/motion_model.hpp"
#include "src/sensing/travel_model.hpp"

namespace mocos::core {

/// Objective weights of the penalized cost U_ε (Eq. 9) plus the §VII
/// extension objectives.
struct Weights {
  double alpha = 1.0;          // coverage-deviation weight (all PoIs)
  double beta = 1.0;           // exposure weight (all PoIs)
  /// Per-PoI overrides of the paper's general α_i / β_i form (Eq. 1). When
  /// non-empty they must match the PoI count and replace the scalar values.
  std::vector<double> alpha_per_poi;
  std::vector<double> beta_per_poi;
  double epsilon = 1e-4;       // barrier ε (the paper's experiments use 1e-4)
  double energy_gamma = 0.0;   // §VII energy objective; 0 disables
  double energy_target = 0.0;  // prescribed movement per transition
  double entropy_weight = 0.0; // §VII entropy objective; 0 disables
  /// §III information-capture objective: event rates λ_i (empty disables)
  /// and its weight γ. A non-positive γ disables the information term even
  /// with rates set, so the rates can feed the event-capture term alone.
  std::vector<double> event_rates;
  double information_gamma = 1.0;
  /// Event-capture objective (EventCaptureTerm): expected captured fraction
  /// of Poisson events with window `capture_duration` (in transitions).
  /// capture_weight > 0 enables; the λ_i come from `event_rates` when set,
  /// otherwise from the power-law profile λ_i ∝ (i+1)^{-lambda_skew}
  /// normalized to sum 1 (skew 0 = uniform; larger skews concentrate events
  /// on low-index PoIs).
  double capture_weight = 0.0;
  double capture_duration = 1.0;
  double lambda_skew = 0.0;
  /// Minimax (smooth worst-PoI) exposure objective (MinimaxExposureTerm):
  /// weight > 0 enables; smoothmax_beta is the log-sum-exp temperature
  /// (annealable per run via OptimizerOptions::smoothmax_beta_override).
  double minimax_weight = 0.0;
  double smoothmax_beta = 8.0;
};

/// Physical motion parameters; the defaults match the reconstructed Fig.-1
/// setups (unit cells, unit speed, unit pause, quarter-cell sensing radius).
struct Physics {
  double speed = 1.0;
  double pause = 1.0;
  double sensing_radius = 0.25;
  /// When > 0, restrict the chain's support to PoI pairs within this travel
  /// distance (plus the self loop); the coverage entries are then listed
  /// over that support only. 0 keeps the original fully-connected chain.
  double support_radius = 0.0;
};

/// A complete problem instance: where the PoIs are, what the target coverage
/// allocation is, how the sensor moves, and how the objectives are weighted.
/// This is the main entry point of the public API.
class Problem {
 public:
  /// Straight-line motion (the paper's setting).
  Problem(geometry::Topology topology, Physics physics, Weights weights);

  /// Custom motion model (e.g. sensing::RoutedTravelModel around obstacles).
  Problem(std::unique_ptr<sensing::MotionModel> model, Weights weights);

  std::size_t num_pois() const { return model_->num_pois(); }
  const geometry::Topology& topology() const { return model_->topology(); }
  const sensing::MotionModel& model() const { return *model_; }
  const sensing::CoverageTensors& tensors() const { return tensors_; }
  const std::vector<double>& targets() const {
    return model_->topology().targets();
  }
  const Weights& weights() const { return weights_; }
  const Physics& physics() const { return physics_; }

  /// The support adjacency (sorted, self included) when support_radius > 0;
  /// empty when every transition is allowed.
  const std::vector<std::vector<std::size_t>>& support() const {
    return tensors_.support();
  }

  /// The transitions the chain may take, as the pattern every schedule of
  /// this problem lives on: the support, or all M² entries.
  const linalg::Pattern& pattern() const { return tensors_.pattern(); }

  /// Builds the penalized multi-objective cost U_ε for these weights. The
  /// returned cost owns copies of everything it needs and outlives the
  /// Problem safely. `smoothmax_beta_override` replaces the weights'
  /// smooth-max temperature for this one cost (the β-annealing hook);
  /// nullopt keeps the configured value.
  cost::CompositeCost make_cost(
      std::optional<double> smoothmax_beta_override = std::nullopt) const;

  /// The event rates the capture objective runs on: `weights().event_rates`
  /// verbatim when non-empty, otherwise the normalized lambda_skew profile
  /// (see Weights). Always size num_pois(), summing to 1 in the derived
  /// case.
  std::vector<double> resolved_event_rates() const;

  /// True when `p` has this problem's size and every transition it stores
  /// lies on pattern() (always, for an unrestricted problem of that size).
  bool on_support(const markov::TransitionMatrix& p) const;

  /// std::invalid_argument naming support_radius unless on_support(p): the
  /// problem prices no transition off its support.
  void require_on_support(const markov::TransitionMatrix& p) const;

  /// Paper metrics (Eqs. 2, 3, 12, 13) at a candidate schedule;
  /// std::invalid_argument for a schedule that leaves the support.
  cost::Metrics metrics_of(const markov::TransitionMatrix& p) const;

  /// Eq.-14 cost ½αΔC + ½βĒ² at a candidate (no barrier) — the number the
  /// paper's tables report.
  double report_cost(const markov::TransitionMatrix& p) const;

 private:
  Physics physics_;
  Weights weights_;
  std::unique_ptr<sensing::MotionModel> model_;
  sensing::CoverageTensors tensors_;
};

}  // namespace mocos::core
