#pragma once

// The coverage objectives evaluated over dense per-PoI coverage matrices,
// kept as the oracle for the entry-list sums (sensing::coverage_sums) every
// consumer now reads. These are the loops the coverage term, the metrics and
// the information term ran before T_jk,i was stored as entry lists:
//
//   g_i  = Σ_{j,k} π_j p_jk B^i_jk,   B^i_jk = T_jk,i − Φ_i T_jk   (Eq. 4)
//   C̄_i  = Σ_{j,k} π_j p_jk T_jk,i / Σ_{j,k} π_j p_jk T_jk        (Eq. 2)
//   ΔC   = Σ_i g_i²                                                (Eq. 12)
//   J    = Σ_i λ_i N_i / D   (information capture, quotient-rule partials)
//
// T_jk,i and T_jk come straight from MotionModel::coverage_during and
// transition_duration, never from a CoverageTensors.

#include <cstddef>
#include <vector>

#include "src/cost/partials.hpp"
#include "src/linalg/matrix.hpp"
#include "src/markov/fundamental.hpp"
#include "src/sensing/motion_model.hpp"

namespace mocos::test {

/// O(M³) dense coverage storage: coverage[i](j, k) = T_jk,i.
struct DenseCoverage {
  std::vector<linalg::Matrix> coverage;
  linalg::Matrix durations;

  explicit DenseCoverage(const sensing::MotionModel& model) {
    const std::size_t n = model.num_pois();
    durations = linalg::Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        durations(j, k) = model.transition_duration(j, k);
    coverage.assign(n, linalg::Matrix(n, n));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t k = 0; k < n; ++k)
          coverage[i](j, k) = model.coverage_during(j, k, i);
  }

  std::size_t size() const { return durations.rows(); }

  /// The deviation kernel B^i = T_·,·,i − Φ_i T.
  linalg::Matrix kernel(std::size_t i, double target) const {
    const std::size_t n = size();
    linalg::Matrix b(n, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        b(j, k) = coverage[i](j, k) - target * durations(j, k);
    return b;
  }
};

/// Σ_{j,k} π_j p_jk m_jk.
inline double dense_chain_sum(const markov::ChainAnalysis& chain,
                              const linalg::Matrix& m) {
  double s = 0.0;
  for (std::size_t j = 0; j < m.rows(); ++j)
    for (std::size_t k = 0; k < m.cols(); ++k)
      s += chain.pi[j] * chain.p(j, k) * m(j, k);
  return s;
}

/// g_i through the deviation kernels.
inline linalg::Vector dense_discrepancies(const DenseCoverage& dense,
                                          const markov::ChainAnalysis& chain,
                                          const std::vector<double>& targets) {
  linalg::Vector g(dense.size(), 0.0);
  for (std::size_t i = 0; i < dense.size(); ++i)
    g[i] = dense_chain_sum(chain, dense.kernel(i, targets[i]));
  return g;
}

/// ΔC = Σ_i g_i².
inline double dense_delta_c(const DenseCoverage& dense,
                            const markov::ChainAnalysis& chain,
                            const std::vector<double>& targets) {
  double d = 0.0;
  for (double g : dense_discrepancies(dense, chain, targets)) d += g * g;
  return d;
}

/// C̄_i = N_i / D.
inline std::vector<double> dense_coverage_shares(
    const DenseCoverage& dense, const markov::ChainAnalysis& chain) {
  const double total = dense_chain_sum(chain, dense.durations);
  std::vector<double> shares(dense.size(), 0.0);
  for (std::size_t i = 0; i < dense.size(); ++i)
    shares[i] = dense_chain_sum(chain, dense.coverage[i]) / total;
  return shares;
}

/// Accumulates the coverage term's partials Σ_i α_i g_i dg_i with
///   ∂g_i/∂π_j = Σ_k p_jk B^i_jk,   ∂g_i/∂p_jk = π_j B^i_jk.
inline void dense_coverage_partials(const DenseCoverage& dense,
                                    const markov::ChainAnalysis& chain,
                                    const std::vector<double>& targets,
                                    const std::vector<double>& alphas,
                                    cost::Partials& out) {
  const std::size_t n = dense.size();
  const linalg::Vector g = dense_discrepancies(dense, chain, targets);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = alphas[i] * g[i];
    const linalg::Matrix b = dense.kernel(i, targets[i]);
    for (std::size_t j = 0; j < n; ++j) {
      double row_dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        row_dot += chain.p(j, k) * b(j, k);
        out.du_dp(j, k) += w * chain.pi[j] * b(j, k);
      }
      out.du_dpi[j] += w * row_dot;
    }
  }
}

/// Expected capture rate J = Σ_i λ_i N_i / D.
inline double dense_capture_rate(const DenseCoverage& dense,
                                 const markov::ChainAnalysis& chain,
                                 const std::vector<double>& rates) {
  const double d = dense_chain_sum(chain, dense.durations);
  double j_total = 0.0;
  for (std::size_t i = 0; i < dense.size(); ++i)
    j_total += rates[i] * dense_chain_sum(chain, dense.coverage[i]) / d;
  return j_total;
}

/// Accumulates the partials of U = −γ J by the quotient rule:
///   ∂U/∂x = −γ Σ_i λ_i (∂N_i/∂x · D − N_i · ∂D/∂x) / D².
inline void dense_information_partials(const DenseCoverage& dense,
                                       const markov::ChainAnalysis& chain,
                                       const std::vector<double>& rates,
                                       double gamma, cost::Partials& out) {
  const std::size_t n = dense.size();
  const double d = dense_chain_sum(chain, dense.durations);
  const double d2 = d * d;
  std::vector<double> num(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    num[i] = dense_chain_sum(chain, dense.coverage[i]);
  for (std::size_t j = 0; j < n; ++j) {
    double dd_dpi = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      dd_dpi += chain.p(j, k) * dense.durations(j, k);
    double dpi_acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double dn_dpi = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        dn_dpi += chain.p(j, k) * dense.coverage[i](j, k);
      dpi_acc += rates[i] * (dn_dpi * d - num[i] * dd_dpi) / d2;
    }
    out.du_dpi[j] += -gamma * dpi_acc;
    for (std::size_t k = 0; k < n; ++k) {
      const double dd_dp = chain.pi[j] * dense.durations(j, k);
      double dp_acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double dn_dp = chain.pi[j] * dense.coverage[i](j, k);
        dp_acc += rates[i] * (dn_dp * d - num[i] * dd_dp) / d2;
      }
      out.du_dp(j, k) += -gamma * dp_acc;
    }
  }
}

}  // namespace mocos::test
