#include "src/markov/resolvent.hpp"

#include <utility>

#include "src/linalg/guard.hpp"
#include "src/linalg/lu.hpp"
#include "src/markov/passage_times.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/partition/block_solver.hpp"
#include "src/sparse/sparse_matrix.hpp"

namespace mocos::markov {

namespace {

/// Resolvent system I − P + 𝟙cᵀ with the fixed reference vector c = 𝟙/M.
/// Unlike I − P + W it does not depend on π, so one factorization yields π
/// as well as Z.
linalg::Matrix resolvent_system(const linalg::Matrix& p) {
  const std::size_t n = p.rows();
  const double c = 1.0 / static_cast<double>(n);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = (i == j ? 1.0 : 0.0) - p(i, j) + c;
  return m;
}

}  // namespace

util::StatusOr<ResolventAnalysis> try_resolvent_analysis(
    const TransitionMatrix& p, SolvePolicy policy) {
  obs::ScopedPhase phase("chain.full_solve");
  const linalg::Matrix& m = p.matrix();
  util::Status input = util::check_row_stochastic(m);
  if (!input.is_ok()) return input;

  const std::size_t n = m.rows();
  const double c = 1.0 / static_cast<double>(n);
  linalg::Matrix g;
  bool sparse = false;
  if (routes_sparse(policy, m)) {
    // The resolvent ladder produces the same G the dense factorization
    // would (agreement bounded by conditioning, well inside the 1e-10
    // parity contract). Failure falls through to the dense factorization —
    // never a new failure mode.
    const sparse::SparseMatrix sp = sparse::SparseMatrix::from_dense(m);
    util::StatusOr<linalg::Matrix> sparse_g =
        partition::try_sparse_resolvent(sp, linalg::Vector(n, c));
    if (sparse_g.ok() && util::all_finite(*sparse_g)) {
      g = std::move(*sparse_g);
      sparse = true;
    } else if (obs::trace_active()) {
      obs::trace_instant("chain_cache.fallback", "markov",
                         obs::TraceArgs().str("kind", "sparse-ladder"));
    }
  }
  if (!sparse) {
    util::StatusOr<linalg::LuDecomposition> lu =
        linalg::LuDecomposition::try_factor(resolvent_system(m));
    if (!lu.ok()) return lu.status();
    g = lu->inverse();
    util::Status finite = util::check_finite(g, "resolvent G");
    if (!finite.is_ok()) return finite;
  }

  // πᵀ = cᵀG: the (scaled) column sums of the resolvent.
  linalg::Vector pi(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) pi[j] += g(i, j);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    pi[j] *= c;
    sum += pi[j];
  }
  util::Status finite = util::check_finite(pi, "resolvent pi");
  if (!finite.is_ok()) return finite;
  util::Status positive = util::check_strictly_positive(pi, "resolvent pi");
  if (!positive.is_ok()) return positive;
  // G𝟙 = 𝟙 exactly, so the mass cᵀG𝟙 is 1 up to round-off; renormalize.
  for (std::size_t j = 0; j < n; ++j) pi[j] /= sum;

  // Z = A# + W with A# = G − 𝟙(πᵀG) (Eqs. 6–7), evaluated in that order.
  const linalg::Vector pi_g = linalg::mul(pi, g);
  linalg::Matrix z(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) z(i, j) = g(i, j) - pi_g[j] + pi[j];

  util::StatusOr<linalg::Matrix> r = try_first_passage_times(z, pi);
  if (!r.ok()) return r.status();
  return ResolventAnalysis{
      ChainAnalysis{p, std::move(pi), std::move(z), std::move(*r)}, sparse};
}

}  // namespace mocos::markov
