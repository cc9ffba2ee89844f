#include "src/cost/information_term.hpp"

#include <stdexcept>
#include <utility>

#include "src/cost/coverage_term.hpp"

namespace mocos::cost {

InformationCaptureTerm::InformationCaptureTerm(
    const sensing::CoverageTensors& tensors, std::vector<double> rates,
    double gamma)
    : entries_(tensors.entries()), durations_(tensors.durations()),
      rates_(std::move(rates)), gamma_(gamma) {
  if (rates_.size() != tensors.num_pois())
    throw std::invalid_argument("InformationCaptureTerm: rate count");
  for (double r : rates_)
    if (r < 0.0)
      throw std::invalid_argument("InformationCaptureTerm: negative rate");
  if (gamma_ <= 0.0)
    throw std::invalid_argument("InformationCaptureTerm: gamma must be > 0");
}

double InformationCaptureTerm::capture_rate(
    const sensing::CoverageSums& sums) const {
  double j_total = 0.0;
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    // Exact on purpose: rate == 0 means the PoI has no event stream by
    // config contract; the skip is lossless because every contribution is
    // scaled by rates_[i].
    // mocos-lint: allow(float-eq)
    if (rates_[i] == 0.0) continue;
    j_total += rates_[i] * sums.covered[i] / sums.expected;
  }
  return j_total;
}

double InformationCaptureTerm::capture_rate(
    const markov::ChainAnalysis& chain) const {
  return capture_rate(sensing::coverage_sums(entries_, durations_, chain.pi,
                                             chain.p.csr()));
}

double InformationCaptureTerm::value(
    const markov::ChainAnalysis& chain) const {
  return -gamma_ * capture_rate(chain);
}

void InformationCaptureTerm::accumulate_partials(
    const markov::ChainAnalysis& chain, Partials& out) const {
  const sensing::CoverageSums sums = sensing::coverage_sums(
      entries_, durations_, chain.pi, chain.p.csr());
  // For U = −γ J with J = Σ_i λ_i N_i / D (N_i = sums.covered[i],
  // D = sums.expected), the quotient rule gives
  //   ∂U/∂x = −(γ/D) Σ_i λ_i ∂N_i/∂x + (γ J / D) ∂D/∂x.
  const double scale = gamma_ / sums.expected;
  std::vector<double> w(rates_.size());
  for (std::size_t i = 0; i < rates_.size(); ++i) w[i] = -scale * rates_[i];
  add_coverage_sums_partials(entries_, durations_, chain, w,
                             scale * capture_rate(sums), out);
}

}  // namespace mocos::cost
