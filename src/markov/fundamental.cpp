#include "src/markov/fundamental.hpp"

#include <utility>

#include "src/linalg/lu.hpp"
#include "src/markov/passage_times.hpp"
#include "src/markov/stationary.hpp"
#include "src/obs/metrics.hpp"
#include "src/partition/block_solver.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::markov {

namespace {

linalg::Matrix fundamental_system(const linalg::Matrix& p,
                                  const linalg::Vector& pi) {
  const std::size_t n = p.rows();
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = (i == j ? 1.0 : 0.0) - p(i, j) + pi[j];
  return m;
}

}  // namespace

linalg::Matrix stationary_rows(const linalg::Vector& pi) {
  return linalg::Matrix::outer(linalg::Vector(pi.size(), 1.0), pi);
}

util::StatusOr<linalg::Matrix> try_fundamental_matrix(
    const linalg::Matrix& p, const linalg::Vector& pi) {
  if (pi.size() != p.rows() || !p.is_square())
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_fundamental_matrix: size mismatch");
  util::StatusOr<linalg::LuDecomposition> lu =
      linalg::LuDecomposition::try_factor(fundamental_system(p, pi));
  if (!lu.ok()) return lu.status();
  linalg::Matrix z = lu->inverse();
  util::Status finite = util::check_finite(z, "Z");
  if (!finite.is_ok()) return finite;
  return z;
}

const linalg::Matrix& ChainAnalysis::fundamental() const {
  if (z.empty())
    throw MissingFundamentalError(
        "ChainAnalysis: Z read from a pi-only analysis (a cost term reads Z "
        "without declaring needs_fundamental())");
  return z;
}

const linalg::Matrix& ChainAnalysis::passage_times() const {
  if (r.empty())
    throw MissingFundamentalError(
        "ChainAnalysis: R read from a pi-only analysis");
  return r;
}

util::StatusOr<ChainAnalysis> try_analyze_chain(const TransitionMatrix& p,
                                                SolvePolicy policy,
                                                AnalysisLevel level) {
  util::Status input = util::check_row_stochastic(p.matrix());
  if (!input.is_ok()) return input;

  // Sparsity-aware path (CSR resolvent + block decomposition). The power
  // rung never routes here — a caller already demoted to it is recovering
  // from a failure and should get the plain dense pipeline. Any sparse
  // failure falls through to dense, so this dispatch never introduces a new
  // failure mode.
  if (routes_sparse(policy, p.matrix())) {
    partition::SparseSolveStats sparse_stats;
    util::StatusOr<ChainAnalysis> sparse_result =
        partition::try_sparse_analyze_chain(p, {}, {}, &sparse_stats, level);
    if (sparse_result.ok()) {
      obs::count("markov.sparse.solves");
      obs::gauge_set("markov.sparse.bandwidth",
                     static_cast<double>(sparse_stats.bandwidth));
      obs::gauge_set("markov.sparse.blocks",
                     static_cast<double>(sparse_stats.blocks));
      obs::gauge_set("markov.sparse.ad_sweeps",
                     static_cast<double>(sparse_stats.ad_sweeps));
      obs::gauge_set("markov.sparse.pi_gap", sparse_stats.pi_gap);
      return sparse_result;
    }
    obs::count("markov.sparse.fallbacks");
  }

  util::StatusOr<linalg::Vector> pi = try_stationary_distribution(p, policy);
  if (!pi.ok()) return pi.status();
  if (level == AnalysisLevel::kStationary) {
    // The passage times' guard, kept for the consumers of a π-only
    // analysis: every closed form divides by π_i.
    util::Status positive = util::check_strictly_positive(*pi, "pi");
    if (!positive.is_ok()) return positive;
    return ChainAnalysis{p, std::move(*pi), {}, {}};
  }

  util::StatusOr<linalg::Matrix> z =
      try_fundamental_matrix(p.matrix(), *pi);
  if (!z.ok()) return z.status();

  util::StatusOr<linalg::Matrix> r = try_first_passage_times(*z, *pi);
  if (!r.ok()) return r.status();

  return ChainAnalysis{p, std::move(*pi), std::move(*z), std::move(*r)};
}

}  // namespace mocos::markov
