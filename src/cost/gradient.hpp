#pragma once

#include "src/cost/composite_cost.hpp"
#include "src/markov/fundamental.hpp"

namespace mocos::cost {

/// Full cost gradient [D_P U] in transition-matrix space (Eq. 10): the
/// terms' raw partials combined through the Schweitzer chain rule.
linalg::Matrix cost_gradient(const CompositeCost& cost,
                             const markov::ChainAnalysis& chain);

/// The descent direction the algorithm actually uses: Π[D_P U], the gradient
/// orthogonally projected onto the row-sum-zero subspace (Eq. 11) so that
/// P + Δt·(−Π[D_P U]) remains row-stochastic.
linalg::Matrix projected_cost_gradient(const CompositeCost& cost,
                                       const markov::ChainAnalysis& chain);

}  // namespace mocos::cost
