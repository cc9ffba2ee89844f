#include "src/cost/energy_term.hpp"

#include <stdexcept>
#include <vector>

namespace mocos::cost {

EnergyTerm::EnergyTerm(const sensing::CoverageTensors& tensors, double gamma,
                       double target)
    : distances_(tensors.distances()), gamma_(gamma), target_(target) {
  if (gamma_ < 0.0) throw std::invalid_argument("EnergyTerm: negative gamma");
  if (target_ < 0.0) throw std::invalid_argument("EnergyTerm: negative target");
}

namespace {

/// d at each of P's stored entries, in slot order: the term's own distances
/// when P is on the problem's pattern, else looked up by (i, j) into
/// `scratch`.
const std::vector<double>& distances_on(const linalg::SparseMatrix& distances,
                                        const linalg::SparseMatrix& p,
                                        std::vector<double>& scratch) {
  if (p.pattern() == distances.pattern()) return distances.values();
  std::vector<double>& d = scratch;
  d.resize(p.nnz());
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      d[e] = distances.values()[sensing::tensor_slot(distances, i, cols[e])];
  return d;
}

}  // namespace

double EnergyTerm::expected_distance(
    const markov::ChainAnalysis& chain) const {
  const std::size_t n = chain.p.size();
  if (n != distances_.rows())
    throw std::invalid_argument("EnergyTerm: chain size mismatch");
  const linalg::SparseMatrix& p = chain.p.csr();
  std::vector<double> scratch;
  const std::vector<double>& d = distances_on(distances_, p, scratch);
  const auto& offsets = p.row_offsets();
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      total += chain.pi[i] * p.values()[e] * d[e];
  return total;
}

double EnergyTerm::value(const markov::ChainAnalysis& chain) const {
  const double diff = expected_distance(chain) - target_;
  return 0.5 * gamma_ * diff * diff;
}

void EnergyTerm::accumulate_partials(const markov::ChainAnalysis& chain,
                                     Partials& out) const {
  const std::size_t n = chain.p.size();
  const double w = gamma_ * (expected_distance(chain) - target_);
  // Exact on purpose: every partial is scaled by w; an exact-zero skip is
  // lossless, a tolerance would bias the gradient near the target.
  // mocos-lint: allow(float-eq)
  if (w == 0.0) return;
  // ∂D/∂π_i = Σ_j p_ij d_ij ;  ∂D/∂p_ij = π_i d_ij.
  const linalg::SparseMatrix& p = chain.p.csr();
  std::vector<double> scratch;
  const std::vector<double>& d = distances_on(distances_, p, scratch);
  std::vector<double>& du_dp = out.dp_on(chain.p);
  const auto& offsets = p.row_offsets();
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      row += p.values()[e] * d[e];
      du_dp[e] += w * chain.pi[i] * d[e];
    }
    out.du_dpi[i] += w * row;
  }
}

}  // namespace mocos::cost
