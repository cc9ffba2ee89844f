#include "src/multi/team_optimizer.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/cost/metrics.hpp"
#include "src/sensing/travel_model.hpp"

namespace mocos::multi {

namespace {

/// Combined coverage of all team chains except `skip`, from the per-chain
/// shares precomputed for the round.
std::vector<double> coverage_of_others(
    const std::vector<std::vector<double>>& shares, std::size_t n,
    std::size_t skip) {
  std::vector<double> not_covered(n, 1.0);
  for (std::size_t k = 0; k < shares.size(); ++k) {
    if (k == skip) continue;
    for (std::size_t i = 0; i < n; ++i) not_covered[i] *= 1.0 - shares[k][i];
  }
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = 1.0 - not_covered[i];
  return out;
}

core::Problem residual_problem(const core::Problem& base,
                               const std::vector<double>& residual_targets) {
  // Rebuild a problem identical to `base` but with re-weighted targets.
  // Only the straight-line physics path is rebuilt here; for custom motion
  // models the caller keeps the original targets (handled by optimize_team).
  geometry::Topology topo(base.topology().name() + "/residual",
                          base.topology().positions(), residual_targets);
  return core::Problem(std::move(topo), base.physics(), base.weights());
}

}  // namespace

SensorTeam optimize_team(const core::Problem& problem,
                         const TeamOptimizerOptions& options,
                         const runtime::ExecutionContext& ctx) {
  if (options.num_sensors == 0)
    throw std::invalid_argument("optimize_team: num_sensors == 0");
  if (options.rounds == 0)
    throw std::invalid_argument("optimize_team: rounds == 0");
  if (options.residual_floor <= 0.0 || options.residual_floor > 1.0)
    throw std::invalid_argument("optimize_team: residual_floor out of (0,1]");
  // Residual rounds rebuild the problem with reweighted targets, which is
  // only possible when the motion physics can be reconstructed — i.e. the
  // straight-line model. (Round-0 optimization would work for any model.)
  if (options.rounds > 1 &&
      dynamic_cast<const sensing::TravelModel*>(&problem.model()) == nullptr)
    throw std::invalid_argument(
        "optimize_team: residual rounds require the straight-line "
        "TravelModel; use rounds = 1 with custom motion models");

  const std::size_t n = problem.num_pois();
  const std::size_t sensors = options.num_sensors;

  // Round 0: every sensor solves the base problem (different seeds); the
  // per-sensor runs are independent and fan out on `ctx`. Seeds are a pure
  // function of the sensor index, so the chains don't depend on scheduling.
  std::vector<std::optional<markov::TransitionMatrix>> slots(sensors);
  runtime::parallel_for(ctx, sensors, [&](std::size_t k) {
    core::OptimizerOptions opts = options.per_sensor;
    opts.seed = options.per_sensor.seed + 101 * (k + 1);
    opts.random_start = k > 0;  // diversify later sensors' starting points
    slots[k] = core::CoverageOptimizer(problem, opts).run().p;
  });
  std::vector<markov::TransitionMatrix> chains;
  chains.reserve(sensors);
  for (auto& slot : slots) chains.push_back(std::move(*slot));

  // Simultaneous (Jacobi) best-response rounds on the coverage residual:
  // all residuals are computed against the previous round's chains up
  // front, then every sensor re-optimizes independently in parallel.
  for (std::size_t round = 1; round < options.rounds; ++round) {
    std::vector<std::vector<double>> shares(sensors);
    runtime::parallel_for(ctx, sensors, [&](std::size_t k) {
      shares[k] = cost::coverage_shares(
          markov::try_analyze_chain(chains[k], markov::SolvePolicy::kAuto,
                                    markov::AnalysisLevel::kStationary)
              .value(),
          problem.tensors());
    });
    std::vector<std::vector<double>> residuals(sensors);
    for (std::size_t k = 0; k < sensors; ++k) {
      const auto others = coverage_of_others(shares, n, k);
      std::vector<double> residual(n);
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double phi = problem.targets()[i];
        residual[i] = std::max(phi * (1.0 - others[i]),
                               options.residual_floor * phi);
        sum += residual[i];
      }
      for (double& r : residual) r /= sum;
      residuals[k] = std::move(residual);
    }
    runtime::parallel_for(ctx, sensors, [&](std::size_t k) {
      const core::Problem sub = residual_problem(problem, residuals[k]);
      core::OptimizerOptions opts = options.per_sensor;
      opts.seed = options.per_sensor.seed + 997 * round + 101 * (k + 1);
      chains[k] = core::CoverageOptimizer(sub, opts).run().p;
    });
  }
  return SensorTeam(problem.model(), std::move(chains));
}

}  // namespace mocos::multi
