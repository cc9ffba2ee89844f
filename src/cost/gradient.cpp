#include "src/cost/gradient.hpp"

#include <limits>

#include "src/cost/projection.hpp"
#include "src/markov/sensitivity.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::cost {

linalg::Matrix cost_gradient(const CompositeCost& cost,
                             const markov::ChainAnalysis& chain) {
  const Partials p = cost.partials(chain);
  linalg::Matrix g =
      markov::chain_rule_gradient(chain, p.du_dpi, p.du_dz, p.du_dp);
  if (util::fault::fire(util::fault::Site::kGradient))
    g(0, 0) = std::numeric_limits<double>::quiet_NaN();
  return g;
}

linalg::Matrix projected_cost_gradient(const CompositeCost& cost,
                                       const markov::ChainAnalysis& chain) {
  // The support-masked projection keeps the structural zeros of a
  // support-restricted chain at zero; for strictly positive chains it is
  // bit-identical to project_row_sum_zero.
  return project_row_sum_zero_on_support(cost_gradient(cost, chain),
                                         chain.p.matrix());
}

}  // namespace mocos::cost
