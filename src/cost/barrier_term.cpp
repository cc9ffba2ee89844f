#include "src/cost/barrier_term.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mocos::cost {

BarrierTerm::BarrierTerm(double epsilon) : epsilon_(epsilon) {
  if (!(epsilon > 0.0) || !(epsilon < 0.5))
    throw std::invalid_argument("BarrierTerm: epsilon must be in (0, 1/2)");
}

double BarrierTerm::entry_value(double p) const {
  if (p <= 0.0 || p >= 1.0) return std::numeric_limits<double>::infinity();
  double v = 0.0;
  if (p <= epsilon_) {
    const double d = epsilon_ - p;
    v += -(1.0 / epsilon_) * std::log(p) * d * d;
  }
  if (p >= 1.0 - epsilon_) {
    const double d = 1.0 - epsilon_ - p;
    v += -(1.0 / epsilon_) * std::log(1.0 - p) * d * d;
  }
  return v;
}

double BarrierTerm::entry_derivative(double p) const {
  if (p <= 0.0 || p >= 1.0)
    throw std::domain_error("BarrierTerm: derivative outside (0,1)");
  double g = 0.0;
  if (p <= epsilon_) {
    const double d = epsilon_ - p;
    // d/dp [ -(1/ε)(ε-p)² ln p ] = (2(ε-p) ln p)/ε − (ε-p)²/(ε p)
    g += (2.0 * d * std::log(p)) / epsilon_ - (d * d) / (epsilon_ * p);
  }
  if (p >= 1.0 - epsilon_) {
    const double d = 1.0 - epsilon_ - p;
    // d/dp [ -(1/ε)(1-ε-p)² ln(1-p) ]
    //   = (2(1-ε-p) ln(1-p))/ε + (1-ε-p)²/(ε (1-p))
    g += (2.0 * d * std::log(1.0 - p)) / epsilon_ +
         (d * d) / (epsilon_ * (1.0 - p));
  }
  return g;
}

double BarrierTerm::value(const markov::ChainAnalysis& chain) const {
  double u = 0.0;
  for (const double p : chain.p.csr().values()) {
    // Exact zeros are structural: off the pattern they are not stored, and
    // an explicit zero on it is held there by the zero-preserving steps, so
    // they sit outside the barrier's domain rather than on its boundary.
    // entry_value(0) itself stays +inf — the right answer for a *probed*
    // zero on a dense chain.
    // mocos-lint: allow(float-eq)
    if (p == 0.0) continue;
    // Inside (ε, 1 − ε) both pieces are gated off: entry_value is +0.0 and
    // u (never −0.0) would not change, so skip the add.
    if (p > epsilon_ && p < 1.0 - epsilon_) continue;
    u += entry_value(p);
    if (std::isinf(u)) return u;
  }
  return u;
}

void BarrierTerm::accumulate_partials(const markov::ChainAnalysis& chain,
                                      Partials& out) const {
  const std::vector<double>& values = chain.p.csr().values();
  std::vector<double>& du_dp = out.dp_on(chain.p);
  for (std::size_t e = 0; e < values.size(); ++e) {
    const double p = values[e];
    // Structural zeros carry no barrier gradient (see value() above);
    // entry_derivative would throw for them by design.
    // mocos-lint: allow(float-eq)
    if (p == 0.0) continue;
    du_dp[e] += entry_derivative(p);
  }
}

}  // namespace mocos::cost
