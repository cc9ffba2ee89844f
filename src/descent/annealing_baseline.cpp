#include "src/descent/annealing_baseline.hpp"

#include <cmath>
#include <stdexcept>

#include "src/cost/projection.hpp"
#include "src/descent/steepest_descent.hpp"

namespace mocos::descent {

AnnealingResult anneal_schedule(const cost::CompositeCost& cost,
                                const markov::TransitionMatrix& start,
                                const AnnealingConfig& config,
                                util::Rng& rng) {
  if (config.max_iterations == 0)
    throw std::invalid_argument("anneal_schedule: max_iterations == 0");
  if (config.proposal_scale <= 0.0)
    throw std::invalid_argument("anneal_schedule: proposal_scale <= 0");
  if (config.annealing_k <= 0.0)
    throw std::invalid_argument("anneal_schedule: annealing_k <= 0");

  markov::TransitionMatrix p = start;
  double current = safe_cost(cost, p);
  if (std::isinf(current))
    throw std::invalid_argument("anneal_schedule: infeasible start");

  AnnealingResult result{p, current, 0, 0};

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    // Random row-sum-zero proposal on P's pattern, cooled like the
    // temperature.
    const double cool = std::log(2.0) / std::log(static_cast<double>(it) + 2.0);
    linalg::SparseMatrix noise(p.csr().shared_pattern());
    for (double& x : noise.values())
      x = rng.gaussian(0.0, config.proposal_scale * cool);
    const linalg::SparseMatrix direction =
        cost::project_row_sum_zero_on_support(noise, p);

    const markov::TransitionMatrix candidate =
        apply_step(p, direction, 1.0, config.probability_margin);
    const double cand_cost = safe_cost(cost, candidate);

    bool accept = cand_cost < current;
    if (!accept && std::isfinite(cand_cost)) {
      const double denom = std::max(std::abs(result.best_cost), 1e-300);
      const double delta = (cand_cost - current) / denom;
      const double temperature =
          config.annealing_k / std::log(static_cast<double>(it) + 2.0);
      accept = rng.bernoulli(std::exp(-delta / temperature));
    }
    ++result.iterations;
    if (accept) {
      ++result.accepted;
      p = candidate;
      current = cand_cost;
      if (current < result.best_cost) {
        result.best_cost = current;
        result.best_p = p;
      }
    }
  }
  return result;
}

}  // namespace mocos::descent
