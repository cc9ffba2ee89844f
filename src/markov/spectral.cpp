#include "src/markov/spectral.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/linalg/eigen.hpp"
#include "src/linalg/norms.hpp"
#include "src/markov/stationary.hpp"

namespace mocos::markov {

double slem(const linalg::Matrix& p, const linalg::Vector& pi) {
  const std::size_t n = p.rows();
  if (pi.size() != n) throw std::invalid_argument("slem: size mismatch");
  // Deflate the Perron component: B = P - W has the same spectrum as P
  // except the eigenvalue 1 is replaced by 0.
  linalg::Matrix b = p - stationary_rows(pi);

  // Repeated squaring with per-step normalization:
  //   rho(B) = lim ||B^k||^(1/k);  k = 2^7 makes the polynomial factor in
  //   the Frobenius bound negligible (x^(1/128) ~= 1).
  // Tolerance, not exact zero: 1/norm overflows to inf for denormal norms,
  // and a chain whose deflated matrix is that small is numerically nilpotent.
  constexpr double kNormFloor = 1e-300;
  double norm = linalg::frobenius_norm(b);
  if (norm < kNormFloor) return 0.0;
  b *= 1.0 / norm;
  double log_scale = std::log(norm);
  double prev_log_scale = 0.0;
  std::size_t k = 1;
  for (int step = 0; step < 7; ++step) {
    b = b * b;
    prev_log_scale = log_scale;
    k *= 2;
    const double m = linalg::frobenius_norm(b);
    if (m < kNormFloor) return 0.0;  // nilpotent deflation: spectrum is {0}
    b *= 1.0 / m;
    log_scale = 2.0 * log_scale + std::log(m);
  }
  // For large k, ||B^k||_F ~= c * rho^k. The ratio of the last two dyadic
  // norms cancels the constant: log||B^k|| - log||B^(k/2)|| = (k/2) log rho.
  return std::exp((log_scale - prev_log_scale) / static_cast<double>(k / 2));
}

double slem(const TransitionMatrix& p) {
  return slem(p.to_dense(), try_stationary_distribution(p).value());
}

double slem_exact(const TransitionMatrix& p) {
  const auto eig = chain_spectrum(p);
  return eig.size() < 2 ? 0.0 : std::abs(eig[1]);
}

std::vector<std::complex<double>> chain_spectrum(const TransitionMatrix& p) {
  return linalg::eigenvalues(p.to_dense());
}

double relaxation_time(const TransitionMatrix& p) {
  const double lambda = slem(p);
  if (lambda >= 1.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (1.0 - lambda);
}

std::size_t mixing_time(const TransitionMatrix& p, double eps,
                        std::size_t max_steps) {
  if (eps <= 0.0 || eps >= 1.0)
    throw std::invalid_argument("mixing_time: eps must be in (0,1)");
  const std::size_t n = p.size();
  const linalg::Vector pi = try_stationary_distribution(p).value();
  const linalg::Matrix dense = p.to_dense();
  linalg::Matrix power = dense;
  for (std::size_t t = 1; t <= max_steps; ++t) {
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double tv = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        tv += std::abs(power(i, j) - pi[j]);
      worst = std::max(worst, 0.5 * tv);
    }
    if (worst <= eps) return t;
    power = power * dense;
  }
  throw std::runtime_error("mixing_time: did not mix within max_steps");
}

double kemeny_constant(const ChainAnalysis& chain) {
  // K = Σ_{j≠i} π_j R_ij = trace(Z) - 1 (start-independent); the -1 removes
  // the diagonal contribution π_i R_ii = 1 folded into trace(Z).
  const linalg::Matrix& z = chain.fundamental();
  double trace = 0.0;
  for (std::size_t i = 0; i < z.rows(); ++i) trace += z(i, i);
  return trace - 1.0;
}

double kemeny_constant_from_row(const ChainAnalysis& chain, std::size_t row) {
  const std::size_t n = chain.p.size();
  if (row >= n) throw std::out_of_range("kemeny_constant_from_row");
  const linalg::Matrix& r = chain.passage_times();
  double k = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == row) continue;
    k += chain.pi[j] * r(row, j);
  }
  return k;
}

}  // namespace mocos::markov
