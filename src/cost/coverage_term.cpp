#include "src/cost/coverage_term.hpp"

#include <stdexcept>
#include <utility>

namespace mocos::cost {

CoverageDeviationTerm::CoverageDeviationTerm(
    const sensing::CoverageTensors& tensors, const std::vector<double>& targets,
    std::vector<double> alphas)
    : entries_(tensors.entries()),
      durations_(tensors.durations()),
      targets_(targets),
      alphas_(std::move(alphas)) {
  if (alphas_.size() != tensors.num_pois())
    throw std::invalid_argument("CoverageDeviationTerm: alpha count mismatch");
  for (double a : alphas_)
    if (a < 0.0)
      throw std::invalid_argument("CoverageDeviationTerm: negative alpha");
  if (targets_.size() != tensors.num_pois())
    throw std::invalid_argument("CoverageDeviationTerm: target size mismatch");
}

CoverageDeviationTerm::CoverageDeviationTerm(
    const sensing::CoverageTensors& tensors, const std::vector<double>& targets,
    double alpha)
    : CoverageDeviationTerm(tensors, targets,
                            std::vector<double>(tensors.num_pois(), alpha)) {}

linalg::Vector CoverageDeviationTerm::discrepancies(
    const markov::ChainAnalysis& chain) const {
  linalg::Vector g(chain.p.size(), 0.0);
  sensing::visit_coverage_sums(
      entries_, durations_, chain.pi, chain.p.csr(),
      [&](std::size_t i, double covered, double expected) {
        g[i] = covered - targets_[i] * expected;
      });
  return g;
}

double CoverageDeviationTerm::value(const markov::ChainAnalysis& chain) const {
  // The discrepancies' own traversal, each g_i folded in as it comes.
  double u = 0.0;
  sensing::visit_coverage_sums(
      entries_, durations_, chain.pi, chain.p.csr(),
      [&](std::size_t i, double covered, double expected) {
        const double g = covered - targets_[i] * expected;
        u += 0.5 * alphas_[i] * g * g;
      });
  return u;
}

void CoverageDeviationTerm::accumulate_partials(
    const markov::ChainAnalysis& chain, Partials& out) const {
  const std::size_t n = chain.p.size();
  const linalg::Vector g = discrepancies(chain);
  // dU = Σ_i α_i g_i dg_i with g_i = N_i − Φ_i Ē: the −Φ_i Ē parts are
  // identical in shape for every i, so they collapse into one dense pass
  // scaled by Σ_i w_i Φ_i.
  std::vector<double> w(n);
  double phi_dot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = alphas_[i] * g[i];
    phi_dot += w[i] * targets_[i];
  }
  add_coverage_sums_partials(entries_, durations_, chain, w, -phi_dot, out);
}

void add_coverage_sums_partials(
    const std::vector<std::vector<sensing::CoverageEntry>>& entries,
    const linalg::SparseMatrix& durations, const markov::ChainAnalysis& chain,
    const std::vector<double>& w, double c, Partials& out) {
  const linalg::SparseMatrix& p = chain.p.csr();
  std::vector<double>& du_dp = out.dp_on(chain.p);
  const std::vector<double>& pv = p.values();
  // The descent's P sits on the tensors' own pattern: slots line up.
  const bool same = p.pattern() == durations.pattern();
  // Exact on purpose (both checks): every partial is scaled by the weight,
  // so skipping an exact zero is lossless; skipping near-zeros would bias
  // the gradient.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // mocos-lint: allow(float-eq)
    if (w[i] == 0.0) continue;
    for (const sensing::CoverageEntry& e : entries[i]) {
      const std::size_t slot = same ? e.slot : p.pattern().find(e.j, e.k);
      if (slot == linalg::SparsityPattern::npos) continue;  // p_jk ≡ 0
      du_dp[slot] += w[i] * chain.pi[e.j] * e.value;
      out.du_dpi[e.j] += w[i] * pv[slot] * e.value;
    }
  }
  // mocos-lint: allow(float-eq)
  if (c == 0.0) return;
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const std::vector<double>& tv = durations.values();
  for (std::size_t j = 0; j < p.rows(); ++j) {
    double row_dot = 0.0;
    for (std::size_t e = offsets[j]; e < offsets[j + 1]; ++e) {
      const double t =
          tv[same ? e : sensing::tensor_slot(durations, j, cols[e])];
      row_dot += pv[e] * t;
      du_dp[e] += c * chain.pi[j] * t;
    }
    out.du_dpi[j] += c * row_dot;
  }
}

}  // namespace mocos::cost
