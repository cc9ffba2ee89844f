#include "src/cost/entropy_term.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/markov/entropy.hpp"

namespace mocos::cost {

namespace {
// ln clamp: the barrier keeps p_ij > 0, but defensive clamping keeps any
// boundary probe finite instead of NaN.
constexpr double kMinProb = 1e-300;
}  // namespace

EntropyTerm::EntropyTerm(double weight) : weight_(weight) {
  if (weight_ < 0.0) throw std::invalid_argument("EntropyTerm: negative w");
}

double EntropyTerm::value(const markov::ChainAnalysis& chain) const {
  return -weight_ * markov::entropy_rate(chain.p, chain.pi);
}

void EntropyTerm::accumulate_partials(const markov::ChainAnalysis& chain,
                                      Partials& out) const {
  // Exact on purpose: weight == 0 is the "term disabled" config contract.
  // mocos-lint: allow(float-eq)
  if (weight_ == 0.0) return;
  const std::size_t n = chain.p.size();
  const auto& offsets = chain.p.csr().row_offsets();
  const std::vector<double>& values = chain.p.csr().values();
  std::vector<double>& du_dp = out.dp_on(chain.p);
  // U_H = -w H:
  //   ∂U_H/∂π_i  = w Σ_j p_ij ln p_ij
  //   ∂U_H/∂p_ij = w π_i (ln p_ij + 1)
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const double p = std::max(values[e], kMinProb);
      const double lp = std::log(p);
      row += values[e] * lp;
      du_dp[e] += weight_ * chain.pi[i] * (lp + 1.0);
    }
    out.du_dpi[i] += weight_ * row;
  }
}

}  // namespace mocos::cost
