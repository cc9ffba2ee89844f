#include "src/cost/exposure_term.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mocos::cost {

namespace {
// The barrier keeps p_ii strictly below 1, but line-search probes may step
// close; the clamp keeps the evaluation finite-and-huge instead of dividing
// by zero.
constexpr double kMinStay = 1e-12;

double hold_probability(const markov::ChainAnalysis& chain, std::size_t i) {
  const std::size_t ii = chain.p.pattern().diagonal(i);
  const double p_ii =
      ii == linalg::SparsityPattern::npos ? 0.0 : chain.p.csr().values()[ii];
  return std::max(1.0 - p_ii, kMinStay);
}

/// The one traversal behind the mean exposures: hands each Ē_i to
/// `visit(i, e_i)` in PoI order. Kac's return-time identity
/// Σ_{j≠i} p_ij R_ji = 1/π_i − 1 closes Eq. 3.
template <class Visit>
void visit_mean_exposures(const markov::ChainAnalysis& chain, Visit&& visit) {
  for (std::size_t i = 0; i < chain.p.size(); ++i)
    visit(i, (1.0 - chain.pi[i]) / (chain.pi[i] * hold_probability(chain, i)));
}
}  // namespace

ExposureTerm::ExposureTerm(std::vector<double> betas)
    : betas_(std::move(betas)) {
  if (betas_.empty()) throw std::invalid_argument("ExposureTerm: empty betas");
  for (double b : betas_)
    if (b < 0.0) throw std::invalid_argument("ExposureTerm: negative beta");
}

ExposureTerm::ExposureTerm(std::size_t n, double beta)
    : ExposureTerm(std::vector<double>(n, beta)) {}

linalg::Vector ExposureTerm::compute_mean_exposures(
    const markov::ChainAnalysis& chain) {
  linalg::Vector e(chain.p.size(), 0.0);
  visit_mean_exposures(chain, [&e](std::size_t i, double e_i) { e[i] = e_i; });
  return e;
}

linalg::Vector ExposureTerm::mean_exposures(
    const markov::ChainAnalysis& chain) const {
  if (chain.p.size() != betas_.size())
    throw std::invalid_argument("ExposureTerm: chain size mismatch");
  return compute_mean_exposures(chain);
}

double ExposureTerm::value(const markov::ChainAnalysis& chain) const {
  if (chain.p.size() != betas_.size())
    throw std::invalid_argument("ExposureTerm: chain size mismatch");
  double u = 0.0;
  visit_mean_exposures(chain, [&](std::size_t i, double e_i) {
    u += 0.5 * betas_[i] * e_i * e_i;
  });
  return u;
}

void ExposureTerm::accumulate_weighted_exposure_partials(
    const markov::ChainAnalysis& chain, const linalg::Vector& dcost_dexposure,
    Partials& out) {
  const std::size_t n = chain.p.size();
  if (dcost_dexposure.size() != n)
    throw std::invalid_argument(
        "accumulate_weighted_exposure_partials: weight size mismatch");
  std::vector<double>& du_dp = out.dp_on(chain.p);
  // dU = Σ_i g_i dĒ_i with g_i = dcost_dexposure[i] and, writing
  // s_i = 1 - p_ii and Ē_i = (1 − π_i)/(π_i s_i):
  //   ∂Ē_i/∂π_i  = -1 / (π_i² s_i)
  //   ∂Ē_i/∂p_ii =  Ē_i / s_i
  // and nothing else: Ē_i depends on the rest of P only through π.
  visit_mean_exposures(chain, [&](std::size_t i, double e_i) {
    const double w = dcost_dexposure[i];
    // Exact on purpose: every partial below is scaled by w, so skipping an
    // exact zero is lossless; skipping near-zeros would bias the gradient.
    // mocos-lint: allow(float-eq)
    if (w == 0.0) return;
    const double s = hold_probability(chain, i);
    const double pi = chain.pi[i];
    out.du_dpi[i] += w * (-1.0 / (pi * pi * s));
    // A chain that cannot stay at i has no p_ii to follow.
    const std::size_t ii = chain.p.pattern().diagonal(i);
    if (ii != linalg::SparsityPattern::npos) du_dp[ii] += w * (e_i / s);
  });
}

void ExposureTerm::accumulate_partials(const markov::ChainAnalysis& chain,
                                       Partials& out) const {
  // The quadratic objective U = Σ_i ½ β_i Ē_i² has outer derivative
  // ∂U/∂Ē_i = β_i Ē_i; everything else is the shared Ē_i chain rule.
  const linalg::Vector e = mean_exposures(chain);
  linalg::Vector g(e.size(), 0.0);
  for (std::size_t i = 0; i < e.size(); ++i) g[i] = betas_[i] * e[i];
  accumulate_weighted_exposure_partials(chain, g, out);
}

}  // namespace mocos::cost
