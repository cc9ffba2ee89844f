#include "src/cost/gradient.hpp"

#include <limits>

#include "src/cost/projection.hpp"
#include "src/markov/sensitivity.hpp"
#include "src/util/fault_injection.hpp"

namespace mocos::cost {

linalg::SparseMatrix cost_gradient(const CompositeCost& cost,
                                   const markov::ChainAnalysis& chain,
                                   const markov::Resolvent* resolvent) {
  // No M×M ∂U/∂Z buffer unless some term writes it.
  const bool needs_z = cost.needs_fundamental();
  Partials p(chain.p, needs_z);
  cost.partials_into(chain, p);
  linalg::SparseMatrix g =
      needs_z
          ? markov::chain_rule_gradient(chain, p.du_dpi, p.du_dz, p.du_dp)
          : markov::stationary_chain_rule_gradient(chain, p.du_dpi, p.du_dp,
                                                   resolvent);
  if (util::fault::fire(util::fault::Site::kGradient))
    g.values().front() = std::numeric_limits<double>::quiet_NaN();
  return g;
}

linalg::SparseMatrix projected_cost_gradient(
    const CompositeCost& cost, const markov::ChainAnalysis& chain,
    const markov::Resolvent* resolvent) {
  return project_row_sum_zero_on_support(cost_gradient(cost, chain, resolvent),
                                         chain.p);
}

}  // namespace mocos::cost
