#include "src/markov/sensitivity.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/markov/resolvent.hpp"

namespace mocos::markov {

linalg::Vector stationary_directional_derivative(const ChainAnalysis& chain,
                                                 const linalg::Matrix& pdot) {
  // dπ = π Ṗ Z   (π as a row vector).
  const linalg::Vector pi_pdot = linalg::mul(chain.pi, pdot);
  return linalg::mul(pi_pdot, chain.fundamental());
}

linalg::Matrix fundamental_directional_derivative(const ChainAnalysis& chain,
                                                  const linalg::Matrix& pdot) {
  // dZ = Z Ṗ Z - W Ṗ Z². Since W = 𝟙πᵀ, the correction is rank one:
  // W Ṗ Z² = 𝟙 (πᵀ Ṗ Z Z), so three row-vector products replace the cached
  // Z² (which would cost an O(M³) product per chain analysis to maintain).
  const linalg::Matrix& z = chain.fundamental();
  const linalg::Vector pi_pdot_z2 =
      linalg::mul(linalg::mul(linalg::mul(chain.pi, pdot), z), z);
  return z * pdot * z -
         linalg::Matrix::outer(linalg::Vector(chain.pi.size(), 1.0),
                               pi_pdot_z2);
}

namespace {

/// std::invalid_argument unless the partials fit the chain: ∂U/∂π of size M
/// and ∂U/∂P on chain.p's pattern.
void require_partials_fit(const ChainAnalysis& chain,
                          const linalg::Vector& du_dpi,
                          const linalg::SparseMatrix& du_dp,
                          const char* what) {
  if (du_dpi.size() != chain.p.size() || !du_dp.shared_pattern() ||
      !(du_dp.pattern() == chain.p.pattern()))
    throw std::invalid_argument(std::string(what) + ": size mismatch");
}

/// grad_e = π_k v_l + ∂U/∂p_e over the pattern's entries e = (k, l).
linalg::SparseMatrix pi_channel_plus(const ChainAnalysis& chain,
                                     const linalg::Vector& v,
                                     const linalg::SparseMatrix& du_dp) {
  linalg::SparseMatrix grad(du_dp.shared_pattern());
  const auto& offsets = du_dp.row_offsets();
  const auto& cols = du_dp.col_indices();
  const auto& dp = du_dp.values();
  std::vector<double>& g = grad.values();
  for (std::size_t k = 0; k < chain.p.size(); ++k)
    for (std::size_t e = offsets[k]; e < offsets[k + 1]; ++e)
      g[e] = chain.pi[k] * v[cols[e]] + dp[e];
  return grad;
}

}  // namespace

linalg::SparseMatrix chain_rule_gradient(const ChainAnalysis& chain,
                                         const linalg::Vector& du_dpi,
                                         const linalg::Matrix& du_dz,
                                         const linalg::SparseMatrix& du_dp) {
  const std::size_t n = chain.p.size();
  require_partials_fit(chain, du_dpi, du_dp, "chain_rule_gradient");
  if (du_dz.rows() != n || du_dz.cols() != n)
    throw std::invalid_argument("chain_rule_gradient: size mismatch");
  const linalg::Matrix& z = chain.fundamental();

  // π-channel: [grad]_kl += π_k * Σ_i z_li ∂U/∂π_i = π_k * (Z du_dpi)_l.
  const linalg::Vector z_dupi = linalg::mul(z, du_dpi);

  // Z-channel, term 1: Σ_ij ∂U/∂z_ij z_ik z_lj = (Zᵀ G Zᵀ)_kl with G=du_dz.
  const linalg::Matrix zt = z.transposed();
  const linalg::Matrix term_zz = zt * du_dz * zt;

  // Z-channel, term 2: -π_k Σ_ij ∂U/∂z_ij (Z²)_lj = -π_k (G (Z²)ᵀ summed
  // over i)_l; define s_l = Σ_ij G_ij (Z²)_lj = Σ_j (Σ_i G_ij) (Z²)_lj.
  // Z² appears only in this vector product, so compute s = Z (Z g) with two
  // matvecs instead of materializing Z².
  linalg::Vector col_sum_g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) col_sum_g[j] += du_dz(i, j);
  const linalg::Vector s = linalg::mul(z, linalg::mul(z, col_sum_g));

  linalg::SparseMatrix grad(du_dp.shared_pattern());
  const auto& offsets = du_dp.row_offsets();
  const auto& cols = du_dp.col_indices();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t e = offsets[k]; e < offsets[k + 1]; ++e) {
      const std::size_t l = cols[e];
      grad.values()[e] = chain.pi[k] * z_dupi[l] + term_zz(k, l) -
                         chain.pi[k] * s[l] + du_dp.values()[e];
    }
  }
  return grad;
}

namespace {

/// Z v without the dense Z: one solve through `resolvent`, or through a
/// fresh factorization of chain.p's resolvent when it is null.
util::StatusOr<linalg::Vector> fundamental_product(const ChainAnalysis& chain,
                                                   const linalg::Vector& v,
                                                   const Resolvent* resolvent) {
  if (resolvent != nullptr)
    return resolvent->try_fundamental_apply(chain.pi, v);
  util::StatusOr<Resolvent> factored = Resolvent::try_factor(chain.p);
  if (!factored.ok()) return factored.status();
  return factored->try_fundamental_apply(chain.pi, v);
}

}  // namespace

linalg::SparseMatrix stationary_chain_rule_gradient(
    const ChainAnalysis& chain, const linalg::Vector& du_dpi,
    const linalg::SparseMatrix& du_dp, const Resolvent* resolvent) {
  const std::size_t n = chain.p.size();
  require_partials_fit(chain, du_dpi, du_dp,
                       "stationary_chain_rule_gradient");

  linalg::Vector z_dupi;
  if (chain.level() == AnalysisLevel::kFundamental) {
    z_dupi = linalg::mul(chain.z, du_dpi);
  } else {
    util::StatusOr<linalg::Vector> solved =
        fundamental_product(chain, du_dpi, resolvent);
    z_dupi = solved.ok()
                 ? std::move(*solved)
                 : linalg::Vector(n, std::numeric_limits<double>::quiet_NaN());
  }
  return pi_channel_plus(chain, z_dupi, du_dp);
}

}  // namespace mocos::markov
