#pragma once

#include "src/linalg/matrix.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::markov {

/// Entropy rate of a stationary Markov chain (§VII, Koralov & Sinai):
///   H = -Σ_i π_i Σ_j p_ij ln p_ij.
/// Terms with p_ij = 0 contribute 0 (the x ln x → 0 limit), so the sum runs
/// over P's stored entries.
double entropy_rate(const TransitionMatrix& p, const linalg::Vector& pi);

/// Convenience overload computing π internally.
double entropy_rate(const TransitionMatrix& p);

/// Upper bound ln(M) — the entropy of the uniform chain on M states; handy
/// for normalizing entropy reports in the benches.
double max_entropy_rate(std::size_t n_states);

}  // namespace mocos::markov
