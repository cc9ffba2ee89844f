#include "src/cost/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "src/cost/exposure_term.hpp"

namespace mocos::cost {

std::vector<double> coverage_shares(const markov::ChainAnalysis& chain,
                                    const sensing::CoverageTensors& tensors) {
  const std::size_t n = chain.p.size();
  const sensing::CoverageSums sums = sensing::coverage_sums(
      tensors.entries(), tensors.durations(), chain.pi, chain.p.csr());
  std::vector<double> shares(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    shares[i] = sums.covered[i] / sums.expected;
  return shares;
}

Metrics compute_metrics(const markov::ChainAnalysis& chain,
                        const sensing::CoverageTensors& tensors,
                        const std::vector<double>& targets) {
  const std::size_t n = chain.p.size();
  if (targets.size() != n)
    throw std::invalid_argument("compute_metrics: target size mismatch");
  Metrics m;
  // g_i = Σ π_j p_jk (T_jk,i − Φ_i T_jk) = covered_i − Φ_i Ē, the split
  // CoverageDeviationTerm uses; C̄_i = covered_i / Ē.
  const sensing::CoverageSums sums = sensing::coverage_sums(
      tensors.entries(), tensors.durations(), chain.pi, chain.p.csr());
  m.c_share.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.c_share[i] = sums.covered[i] / sums.expected;
    const double g = sums.covered[i] - targets[i] * sums.expected;
    m.delta_c += g * g;
  }

  linalg::Vector e = ExposureTerm::compute_mean_exposures(chain);
  m.exposure.assign(e.begin(), e.end());
  double sum_sq = 0.0;
  for (double x : e) sum_sq += x * x;
  m.e_bar = std::sqrt(sum_sq);
  return m;
}

}  // namespace mocos::cost
