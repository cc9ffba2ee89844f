#pragma once

#include <utility>
#include <vector>

#include "src/sensing/travel_model.hpp"
#include "src/core/problem.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/passage_times.hpp"
#include "src/markov/stationary.hpp"
#include "src/markov/transition_matrix.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"

namespace mocos::test {

/// The value of a guarded solve (markov::try_analyze_chain,
/// try_stationary_distribution, try_fundamental_matrix, ...). A failed solve
/// throws util::StatusError, failing the test with its structured
/// diagnostic.
template <typename T>
T unwrap(util::StatusOr<T> result) {
  return std::move(result).value();
}

/// The Kemeny–Snell pipeline, the independent reference for
/// markov::try_analyze_chain: dense π, then Z = (I − P + W)⁻¹
/// (markov::try_fundamental_matrix), then R from Z and π. Z and R come from
/// their own LU, not from the resolvent G the analysis under test builds.
inline markov::ChainAnalysis kemeny_snell_analysis(
    const markov::TransitionMatrix& p) {
  linalg::Vector pi = unwrap(
      markov::try_stationary_distribution(p, markov::SolvePolicy::kDense));
  linalg::Matrix z = unwrap(markov::try_fundamental_matrix(p.to_dense(), pi));
  linalg::Matrix r = unwrap(markov::try_first_passage_times(z, pi));
  return markov::ChainAnalysis{p, std::move(pi), std::move(z), std::move(r)};
}

/// A small, asymmetric, ergodic 3-state chain with known structure used by
/// many analytic unit tests.
inline markov::TransitionMatrix chain3() {
  return markov::TransitionMatrix(linalg::Matrix{
      {0.5, 0.3, 0.2}, {0.1, 0.6, 0.3}, {0.4, 0.4, 0.2}});
}

/// A 2-state chain whose stationary distribution and passage times have
/// closed forms: pi = (b, a)/(a+b), R_12 = 1/a, R_21 = 1/b.
inline markov::TransitionMatrix chain2(double a, double b) {
  return markov::TransitionMatrix(
      linalg::Matrix{{1.0 - a, a}, {b, 1.0 - b}});
}

/// Random strictly-positive ergodic chain (entries bounded away from 0).
inline markov::TransitionMatrix random_positive_chain(std::size_t n,
                                                      util::Rng& rng,
                                                      double floor = 0.02) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = floor + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  return markov::TransitionMatrix(std::move(m));
}

/// Standard paper problem: topology index 1..4, default physics, weights.
inline core::Problem paper_problem(int topology, double alpha, double beta,
                                   double epsilon = 1e-4) {
  core::Weights w;
  w.alpha = alpha;
  w.beta = beta;
  w.epsilon = epsilon;
  return core::Problem(geometry::paper_topology(topology), core::Physics{}, w);
}

/// Random row-sum-zero direction matrix with entries in [-1, 1].
inline linalg::Matrix random_direction(std::size_t n, util::Rng& rng) {
  linalg::Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      v(i, j) = rng.uniform(-1.0, 1.0);
      mean += v(i, j);
    }
    mean /= static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) v(i, j) -= mean;
  }
  return v;
}

/// The entries of dense `m` at `p`'s stored transitions: a direction or a
/// gradient on P's pattern.
inline linalg::SparseMatrix on_pattern(const markov::TransitionMatrix& p,
                                       const linalg::Matrix& m) {
  linalg::SparseMatrix out(p.csr().shared_pattern());
  const auto& offsets = out.row_offsets();
  const auto& cols = out.col_indices();
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      out.values()[e] = m(i, cols[e]);
  return out;
}

}  // namespace mocos::test
