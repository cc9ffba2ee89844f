#include "src/core/problem.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <stdexcept>
#include <utility>

#include "src/cost/barrier_term.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/energy_term.hpp"
#include "src/cost/entropy_term.hpp"
#include "src/cost/event_capture_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/cost/information_term.hpp"
#include "src/cost/minimax_exposure_term.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/markov/fundamental.hpp"

namespace mocos::core {

namespace {
sensing::CoverageTensors make_tensors(const sensing::MotionModel& model,
                                      const Physics& physics) {
  if (physics.support_radius > 0.0)
    return sensing::CoverageTensors(
        model,
        geometry::radius_neighbors(model.topology(), physics.support_radius),
        physics.sensing_radius);
  return sensing::CoverageTensors(model);
}
}  // namespace

Problem::Problem(geometry::Topology topology, Physics physics, Weights weights)
    : physics_(physics),
      weights_(weights),
      model_(std::make_unique<sensing::TravelModel>(
          std::move(topology), physics.speed, physics.pause,
          physics.sensing_radius)),
      tensors_(make_tensors(*model_, physics_)) {}

Problem::Problem(std::unique_ptr<sensing::MotionModel> model, Weights weights)
    : weights_(weights),
      model_([&]() -> std::unique_ptr<sensing::MotionModel> {
        if (!model) throw std::invalid_argument("Problem: null motion model");
        return std::move(model);
      }()),
      tensors_(*model_) {}

namespace {
// Resolves the scalar/per-PoI weight pair into a per-PoI vector; an empty
// override means "use the scalar everywhere". Returns an empty vector when
// the term is disabled (all weights zero).
std::vector<double> resolve_weights(double scalar,
                                    const std::vector<double>& per_poi,
                                    std::size_t n, const char* name) {
  std::vector<double> w = per_poi;
  if (w.empty()) w.assign(n, scalar);
  if (w.size() != n)
    throw std::invalid_argument(std::string("Weights: ") + name +
                                "_per_poi size mismatch");
  bool any = false;
  for (double x : w) {
    if (x < 0.0)
      throw std::invalid_argument(std::string("Weights: negative ") + name);
    // Exact on purpose: config weights are written literally; any nonzero
    // value, however small, keeps the per-PoI vector alive.
    // mocos-lint: allow(float-eq)
    any = any || x != 0.0;
  }
  if (!any) w.clear();
  return w;
}
}  // namespace

std::vector<double> Problem::resolved_event_rates() const {
  if (!weights_.event_rates.empty()) return weights_.event_rates;
  const std::size_t n = num_pois();
  std::vector<double> rates(n, 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = std::pow(static_cast<double>(i + 1), -weights_.lambda_skew);
    sum += rates[i];
  }
  for (std::size_t i = 0; i < n; ++i) rates[i] /= sum;
  return rates;
}

cost::CompositeCost Problem::make_cost(
    std::optional<double> smoothmax_beta_override) const {
  cost::CompositeCost u;
  const bool info_enabled =
      !weights_.event_rates.empty() && weights_.information_gamma > 0.0;
  const auto alphas = resolve_weights(weights_.alpha, weights_.alpha_per_poi,
                                      num_pois(), "alpha");
  if (!alphas.empty())
    u.add(std::make_unique<cost::CoverageDeviationTerm>(tensors_, targets(),
                                                        alphas));
  const auto betas = resolve_weights(weights_.beta, weights_.beta_per_poi,
                                     num_pois(), "beta");
  if (!betas.empty())
    u.add(std::make_unique<cost::ExposureTerm>(betas));
  u.add(std::make_unique<cost::BarrierTerm>(weights_.epsilon));
  // Exact on purpose (both checks below): weight == 0 is the "term
  // disabled" config contract, not a computed quantity.
  // mocos-lint: allow(float-eq)
  if (weights_.energy_gamma != 0.0)
    u.add(std::make_unique<cost::EnergyTerm>(tensors_, weights_.energy_gamma,
                                             weights_.energy_target));
  // mocos-lint: allow(float-eq)
  if (weights_.entropy_weight != 0.0)
    u.add(std::make_unique<cost::EntropyTerm>(weights_.entropy_weight));
  if (info_enabled)
    u.add(std::make_unique<cost::InformationCaptureTerm>(
        tensors_, weights_.event_rates, weights_.information_gamma));
  if (weights_.capture_weight > 0.0)
    u.add(std::make_unique<cost::EventCaptureTerm>(
        resolved_event_rates(), weights_.capture_duration,
        weights_.capture_weight));
  if (weights_.minimax_weight > 0.0)
    u.add(std::make_unique<cost::MinimaxExposureTerm>(
        weights_.minimax_weight,
        smoothmax_beta_override.value_or(weights_.smoothmax_beta)));
  return u;
}

bool Problem::on_support(const markov::TransitionMatrix& p) const {
  return pattern()->contains(p.pattern());
}

void Problem::require_on_support(const markov::TransitionMatrix& p) const {
  if (p.size() != num_pois() || on_support(p)) return;
  const auto& offsets = p.csr().row_offsets();
  const auto& cols = p.csr().col_indices();
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      if (pattern()->find(i, cols[e]) == linalg::SparsityPattern::npos)
        throw std::invalid_argument(
            "transition matrix leaves the support: it allows the transition " +
            std::to_string(i) + " -> " + std::to_string(cols[e]) +
            ", but those PoIs are farther apart than support_radius");
}

cost::Metrics Problem::metrics_of(const markov::TransitionMatrix& p) const {
  require_on_support(p);
  // Guarded analysis so callers evaluating an arbitrary schedule (e.g. the
  // CLI's load_schedule audit path) get a structured numerical-failure error
  // for reducible/degenerate chains instead of a bare runtime_error. Every
  // metric, exposure included, is a function of (π, P).
  util::StatusOr<markov::ChainAnalysis> chain = markov::try_analyze_chain(
      p, markov::SolvePolicy::kAuto, markov::AnalysisLevel::kStationary);
  if (!chain.ok()) throw util::StatusError(chain.status());
  return cost::compute_metrics(*chain, tensors_, targets());
}

double Problem::report_cost(const markov::TransitionMatrix& p) const {
  return metrics_of(p).cost(weights_.alpha, weights_.beta);
}

}  // namespace mocos::core
