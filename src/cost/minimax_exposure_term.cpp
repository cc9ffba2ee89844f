#include "src/cost/minimax_exposure_term.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/cost/exposure_term.hpp"

namespace mocos::cost {

MinimaxExposureTerm::MinimaxExposureTerm(double weight, double beta)
    : weight_(weight), beta_(beta) {
  if (!(weight_ > 0.0))
    throw std::invalid_argument("MinimaxExposureTerm: weight must be > 0");
  if (!(beta_ > 0.0))
    throw std::invalid_argument("MinimaxExposureTerm: beta must be > 0");
}

double MinimaxExposureTerm::smooth_max(
    const markov::ChainAnalysis& chain) const {
  const linalg::Vector e = ExposureTerm::compute_mean_exposures(chain);
  // Max-shifted log-sum-exp: every exponent is <= 0, so no overflow for any
  // β, and the shift cancels exactly in the log.
  const double m = *std::max_element(e.begin(), e.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < e.size(); ++i)
    acc += std::exp(beta_ * (e[i] - m));
  return m + std::log(acc) / beta_;
}

linalg::Vector MinimaxExposureTerm::softmax_weights(
    const markov::ChainAnalysis& chain) const {
  const linalg::Vector e = ExposureTerm::compute_mean_exposures(chain);
  const double m = *std::max_element(e.begin(), e.end());
  linalg::Vector sigma(e.size(), 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < e.size(); ++i) {
    sigma[i] = std::exp(beta_ * (e[i] - m));
    acc += sigma[i];
  }
  for (std::size_t i = 0; i < e.size(); ++i) sigma[i] /= acc;
  return sigma;
}

double MinimaxExposureTerm::value(const markov::ChainAnalysis& chain) const {
  return weight_ * smooth_max(chain);
}

void MinimaxExposureTerm::accumulate_partials(
    const markov::ChainAnalysis& chain, Partials& out) const {
  // ∂U/∂Ē_i = weight·σ_i; the Ē_i → (π, P) chain is shared with the
  // quadratic exposure term.
  linalg::Vector g = softmax_weights(chain);
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= weight_;
  ExposureTerm::accumulate_weighted_exposure_partials(chain, g, out);
}

}  // namespace mocos::cost
