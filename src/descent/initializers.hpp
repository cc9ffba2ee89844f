#pragma once

#include <cstddef>
#include <vector>

#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/rng.hpp"

namespace mocos::descent {

/// V1 initial condition: p_ij = 1/M.
markov::TransitionMatrix uniform_start(std::size_t n);

/// Support-restricted initial condition on the support pattern itself
/// (core::Problem::pattern()): row i is uniform over its stored entries,
/// which must include i itself so the chain is aperiodic. The chain keeps
/// that pattern object through the whole descent, so the cost terms read
/// T_jk by slot and city-scale chains stay sparse end to end.
markov::TransitionMatrix support_uniform_start(const linalg::Pattern& support);

/// V2 initial condition: the paper's random row-stochastic construction.
/// Retries (bounded) until the sampled chain is ergodic with every entry
/// strictly positive, which the construction almost surely yields anyway.
markov::TransitionMatrix random_start(std::size_t n, util::Rng& rng);

/// A blend (1-w)*uniform + w*random — useful in tests to sample matrices at
/// controlled distances from the uniform chain.
markov::TransitionMatrix blended_start(std::size_t n, double w,
                                       util::Rng& rng);

}  // namespace mocos::descent
