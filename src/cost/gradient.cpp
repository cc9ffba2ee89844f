#include "src/cost/gradient.hpp"

#include <limits>

#include "src/cost/projection.hpp"
#include "src/markov/sensitivity.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::cost {

linalg::Matrix cost_gradient(const CompositeCost& cost,
                             const markov::ChainAnalysis& chain,
                             const markov::Resolvent* resolvent) {
  // No M×M ∂U/∂Z buffer unless some term writes it.
  const bool needs_z = cost.needs_fundamental();
  Partials p(chain.p.size(), needs_z);
  cost.partials_into(chain, p);
  linalg::Matrix g =
      needs_z
          ? markov::chain_rule_gradient(chain, p.du_dpi, p.du_dz, p.du_dp)
          : markov::stationary_chain_rule_gradient(chain, p.du_dpi, p.du_dp,
                                                   resolvent);
  if (util::fault::fire(util::fault::Site::kGradient))
    g(0, 0) = std::numeric_limits<double>::quiet_NaN();
  return g;
}

linalg::Matrix projected_cost_gradient(const CompositeCost& cost,
                                       const markov::ChainAnalysis& chain,
                                       const markov::Resolvent* resolvent) {
  // The support-masked projection keeps the structural zeros of a
  // support-restricted chain at zero; for strictly positive chains it is
  // bit-identical to project_row_sum_zero.
  return project_row_sum_zero_on_support(
      cost_gradient(cost, chain, resolvent), chain.p.matrix());
}

}  // namespace mocos::cost
