#pragma once

#include "src/cost/composite_cost.hpp"
#include "src/markov/fundamental.hpp"

namespace mocos::markov {
class Resolvent;
}  // namespace mocos::markov

namespace mocos::cost {

/// Full cost gradient [D_P U] in transition-matrix space (Eq. 10) on P's
/// pattern: the terms' raw partials combined through the Schweitzer chain
/// rule. A cost that needs Z gets all of Eq. 10 from the analysis's Z; any
/// other cost drops the Z-channel and takes its π-channel Z·∂U/∂π from the
/// analysis's Z when present, else from one solve through `resolvent` (the
/// factorization behind a π-only analysis; null refactors chain.p). A
/// failed solve leaves NaN in the gradient.
linalg::SparseMatrix cost_gradient(
    const CompositeCost& cost, const markov::ChainAnalysis& chain,
    const markov::Resolvent* resolvent = nullptr);

/// The descent direction the algorithm actually uses: Π[D_P U], the gradient
/// orthogonally projected onto the row-sum-zero subspace (Eq. 11) of P's
/// pattern, so that P + Δt·(−Π[D_P U]) remains row-stochastic and on it.
linalg::SparseMatrix projected_cost_gradient(
    const CompositeCost& cost, const markov::ChainAnalysis& chain,
    const markov::Resolvent* resolvent = nullptr);

}  // namespace mocos::cost
