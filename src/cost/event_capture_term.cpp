#include "src/cost/event_capture_term.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mocos::cost {

namespace {
// Residual hitting times collapse toward zero when a PoI is visited almost
// every transition; the floor keeps the exp() argument finite. When it
// engages the capture probability saturates at 1 and the partials are
// treated as zero (the true derivative through the clamp).
constexpr double kMinWait = 1e-9;
// π_i and 1 − π_i both appear in denominators; ergodic chains keep them in
// (0, 1) but line-search probes can step arbitrarily close to the boundary.
constexpr double kMinMass = 1e-12;
}  // namespace

EventCaptureTerm::EventCaptureTerm(std::vector<double> rates, double duration,
                                   double weight)
    : rates_(std::move(rates)), duration_(duration), weight_(weight),
      rate_sum_(0.0) {
  if (rates_.empty())
    throw std::invalid_argument("EventCaptureTerm: empty rates");
  for (double r : rates_) {
    if (!(r >= 0.0))
      throw std::invalid_argument("EventCaptureTerm: negative rate");
    rate_sum_ += r;
  }
  if (rate_sum_ <= 0.0)
    throw std::invalid_argument("EventCaptureTerm: all rates zero");
  if (!(duration_ > 0.0))
    throw std::invalid_argument("EventCaptureTerm: duration must be > 0");
  if (!(weight_ > 0.0))
    throw std::invalid_argument("EventCaptureTerm: weight must be > 0");
}

double EventCaptureTerm::mean_hitting_from_stationarity(
    const markov::ChainAnalysis& chain, std::size_t i) {
  const double pi = std::max(chain.pi[i], kMinMass);
  return chain.fundamental()(i, i) / pi - 1.0;
}

linalg::Vector EventCaptureTerm::per_poi_capture(
    const markov::ChainAnalysis& chain) const {
  const std::size_t n = chain.p.size();
  if (n != rates_.size())
    throw std::invalid_argument("EventCaptureTerm: chain size mismatch");
  linalg::Vector f(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double pi = std::max(chain.pi[i], kMinMass);
    const double q = std::max(1.0 - pi, kMinMass);
    const double w =
        std::max(mean_hitting_from_stationarity(chain, i) / q, kMinWait);
    f[i] = pi + q * (1.0 - std::exp(-duration_ / w));
  }
  return f;
}

double EventCaptureTerm::capture_fraction(
    const markov::ChainAnalysis& chain) const {
  const linalg::Vector f = per_poi_capture(chain);
  double acc = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) acc += rates_[i] * f[i];
  return acc / rate_sum_;
}

double EventCaptureTerm::value(const markov::ChainAnalysis& chain) const {
  return weight_ * (1.0 - capture_fraction(chain));
}

void EventCaptureTerm::accumulate_partials(const markov::ChainAnalysis& chain,
                                           Partials& out) const {
  const std::size_t n = chain.p.size();
  if (n != rates_.size())
    throw std::invalid_argument("EventCaptureTerm: chain size mismatch");
  // U = weight·(1 − Σ_i λ_i F_i / Λ): each PoI touches only π_i and z_ii.
  // Writing q = 1 − π, w = (z_ii − π)/(π q) and g = 1 − e^{−d/w}:
  //   ∂F/∂z_ii = q · g'(w) / (π q) = g'(w)/π,
  //   ∂F/∂π    = 1 − g + q · g'(w) · ∂w/∂π,
  //   ∂w/∂π    = (−(π q) − (z_ii − π)(1 − 2π)) / (π q)²,
  //   g'(w)    = −e^{−d/w} · d / w².
  const linalg::Matrix& z = chain.fundamental();
  for (std::size_t i = 0; i < n; ++i) {
    const double lambda = rates_[i];
    // Exact on purpose: rate == 0 means no event stream at this PoI by
    // config contract, and every partial below is scaled by λ_i.
    // mocos-lint: allow(float-eq)
    if (lambda == 0.0) continue;
    const double scale = -weight_ * lambda / rate_sum_;
    const double pi = std::max(chain.pi[i], kMinMass);
    const double q = std::max(1.0 - pi, kMinMass);
    const double piq = pi * q;
    const double w_raw = (z(i, i) - pi) / piq;
    const double w = std::max(w_raw, kMinWait);
    const double g = 1.0 - std::exp(-duration_ / w);
    double df_dz = 0.0;
    double df_dpi = 1.0 - g;
    if (w_raw > kMinWait) {
      const double gprime = -std::exp(-duration_ / w) * duration_ / (w * w);
      const double dw_dpi =
          (-piq - (z(i, i) - pi) * (1.0 - 2.0 * pi)) / (piq * piq);
      df_dz = gprime / pi;
      df_dpi += q * gprime * dw_dpi;
    }
    out.du_dz(i, i) += scale * df_dz;
    out.du_dpi[i] += scale * df_dpi;
  }
}

}  // namespace mocos::cost
