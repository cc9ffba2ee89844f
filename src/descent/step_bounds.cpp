#include "src/descent/step_bounds.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mocos::descent {

double max_feasible_step(const markov::TransitionMatrix& p,
                         const linalg::SparseMatrix& v, double margin) {
  if (!v.shared_pattern() || !(v.pattern() == p.pattern()))
    throw std::invalid_argument("max_feasible_step: V is not on P's pattern");
  if (margin < 0.0 || margin >= 0.5)
    throw std::invalid_argument("max_feasible_step: margin outside [0, 0.5)");
  const double lo = margin;
  const double hi = 1.0 - margin;
  const std::vector<double>& pv = p.csr().values();
  const std::vector<double>& vv = v.values();
  double bound = std::numeric_limits<double>::infinity();
  for (std::size_t e = 0; e < pv.size(); ++e) {
    const double x = pv[e];
    const double d = vv[e];
    if (d > 0.0) {
      bound = std::min(bound, (hi - x) / d);
    } else if (d < 0.0) {
      bound = std::min(bound, (lo - x) / d);
    }
  }
  return std::max(bound, 0.0);
}

}  // namespace mocos::descent
