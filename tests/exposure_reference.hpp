#pragma once

// The paper's Eq. 3 evaluated through the fundamental matrix, kept as the
// oracle for cost::ExposureTerm's closed form. These are the formulas the
// exposure term used before Kac's identity made Z unnecessary:
//
//   Ē_i = Σ_{j≠i} p_ij R_ji / (1 − p_ii),   R_ji = (z_ii − z_ji)/π_i,
//
// with partials in all three of Eq. 10's channels. Both need an analysis at
// markov::AnalysisLevel::kFundamental.

#include <algorithm>
#include <cstddef>

#include "src/cost/partials.hpp"
#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"

namespace mocos::test {

inline double eq3_hold_probability(const markov::ChainAnalysis& chain,
                                   std::size_t i) {
  return std::max(1.0 - chain.p(i, i), 1e-12);
}

/// Ē_i by Eq. 3, reading the passage times R.
inline linalg::Vector eq3_mean_exposures(const markov::ChainAnalysis& chain) {
  const std::size_t n = chain.p.size();
  const linalg::Matrix& r = chain.passage_times();
  linalg::Vector e(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double h = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) h += chain.p(i, j) * r(j, i);
    e[i] = h / eq3_hold_probability(chain, i);
  }
  return e;
}

/// Accumulates Σ_i g_i dĒ_i in (π, Z, P) with Ē_i written through Z:
///   ∂Ē_i/∂π_i  = −Ē_i / π_i
///   ∂Ē_i/∂p_ii =  Ē_i / s_i
///   ∂Ē_i/∂p_ij = (z_ii − z_ji)/(π_i s_i)   (j ≠ i)
///   ∂Ē_i/∂z_ii = 1/π_i
///   ∂Ē_i/∂z_ji = −p_ij/(π_i s_i)           (j ≠ i)
inline void eq3_accumulate_weighted_exposure_partials(
    const markov::ChainAnalysis& chain, const linalg::Vector& g,
    cost::Partials& out) {
  const std::size_t n = chain.p.size();
  const linalg::Matrix& z = chain.fundamental();
  const linalg::Vector e = eq3_mean_exposures(chain);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = g[i];
    const double s = eq3_hold_probability(chain, i);
    const double inv_pis = 1.0 / (chain.pi[i] * s);
    out.du_dpi[i] += w * (-e[i] / chain.pi[i]);
    out.du_dp(i, i) += w * (e[i] / s);
    out.du_dz(i, i) += w * ((1.0 - chain.p(i, i)) * inv_pis);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      out.du_dp(i, j) += w * (z(i, i) - z(j, i)) * inv_pis;
      out.du_dz(j, i) += w * (-chain.p(i, j) * inv_pis);
    }
  }
}

}  // namespace mocos::test
