#include "src/markov/resolvent.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/linalg/guard.hpp"
#include "src/markov/passage_times.hpp"
#include "src/markov/stationary.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"

namespace mocos::markov {

namespace {

/// Resolvent system I − P + 𝟙cᵀ with the fixed reference vector c = 𝟙/M.
/// Unlike I − P + W it does not depend on π, so one factorization yields π
/// as well as Z. Each entry is (δ_ij − p_ij) + c, with p_ij = 0 off the
/// pattern.
linalg::Matrix resolvent_system(const linalg::SparseMatrix& p) {
  const std::size_t n = p.rows();
  const double c = 1.0 / static_cast<double>(n);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = (i == j ? 1.0 : 0.0) + c;
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
      m(i, cols[e]) = (i == cols[e] ? 1.0 : 0.0) - p.values()[e] + c;
  return m;
}

/// Every switch from the sparse ladder to the dense LU, counted once.
void record_sparse_fallback(const util::Status& why) {
  obs::count("markov.sparse.fallbacks");
  if (!obs::trace_active()) return;
  obs::TraceArgs args;
  args.str("kind", "sparse-ladder").str("reason", why.to_string());
  obs::trace_instant("chain_cache.fallback", "markov", args);
}

}  // namespace

util::Status check_stationary_residual(const linalg::SparseMatrix& p,
                                       const linalg::Vector& pi) {
  const linalg::Vector pi_p = p.transpose_matvec(pi);
  double residual = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i)
    residual = std::max(residual, std::abs(pi_p[i] - pi[i]));
  if (residual <= kStationaryResidualTol) return util::Status::ok();
  char message[96];
  std::snprintf(message, sizeof message,
                "sparse ladder pi is not a fixed point of P (residual %.3g)",
                residual);
  return util::Status(util::StatusCode::kNotErgodic, message);
}

util::Status Resolvent::try_factor_sparse(const linalg::SparseMatrix& p,
                                          const linalg::Vector& c) {
  obs::ScopedPhase phase("sparse.resolvent");
  util::StatusOr<partition::SparseResolvent> ladder =
      partition::SparseResolvent::try_factor(p, c);
  if (!ladder.ok()) return ladder.status();
  util::StatusOr<linalg::Vector> pi = ladder->try_stationary();
  if (!pi.ok()) return pi.status();
  util::Status fixed_point = check_stationary_residual(p, *pi);
  if (!fixed_point.is_ok()) return fixed_point;
  sparse_.emplace(std::move(*ladder));
  pi_ = std::move(*pi);
  return util::Status::ok();
}

util::StatusOr<Resolvent> Resolvent::try_factor(const TransitionMatrix& p,
                                                SolvePolicy policy) {
  const std::size_t n = p.size();
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));
  Resolvent res;
  if (routes_sparse(policy, p.csr())) {
    util::Status sparse = res.try_factor_sparse(p.csr(), c);
    if (sparse.is_ok()) {
      obs::count("markov.sparse.solves");
      return res;
    }
    record_sparse_fallback(sparse);
  }
  util::StatusOr<linalg::LuDecomposition> lu =
      linalg::LuDecomposition::try_factor(resolvent_system(p.csr()));
  if (!lu.ok()) return lu.status();
  // πᵀA = cᵀ: one transposed solve against the same factors.
  res.pi_ = lu->solve_transposed(c);
  double sum = 0.0;
  for (double x : res.pi_) sum += x;
  for (double& x : res.pi_) x /= sum;
  util::Status finite = util::check_finite(res.pi_, "resolvent pi");
  if (!finite.is_ok()) return finite;
  res.dense_.emplace(std::move(*lu));
  return res;
}

util::StatusOr<linalg::Vector> Resolvent::try_fundamental_apply(
    const linalg::Vector& pi, const linalg::Vector& v) const {
  linalg::Vector gv;
  if (sparse_) {
    util::StatusOr<linalg::Vector> solved = sparse_->try_apply(v);
    if (!solved.ok()) return solved.status();
    gv = std::move(*solved);
  } else {
    gv = dense_->solve(v);
  }
  // Z v = A#v + 𝟙(πᵀv) with A#v = Gv − 𝟙(πᵀGv).
  double shift = 0.0;
  for (std::size_t i = 0; i < gv.size(); ++i) shift += pi[i] * (v[i] - gv[i]);
  for (double& x : gv) x += shift;
  util::Status finite = util::check_finite(gv, "fundamental product");
  if (!finite.is_ok()) return finite;
  return gv;
}

util::StatusOr<linalg::Matrix> Resolvent::try_inverse() const {
  if (sparse_) return sparse_->try_inverse();
  linalg::Matrix g = dense_->inverse();
  util::Status finite = util::check_finite(g, "resolvent G");
  if (!finite.is_ok()) return finite;
  return g;
}

namespace {

/// The analysis `level` asks for, through `resolvent`.
util::StatusOr<ResolventAnalysis> analyze_through(Resolvent resolvent,
                                                  const TransitionMatrix& p,
                                                  SolvePolicy policy,
                                                  AnalysisLevel level) {
  linalg::Vector pi = resolvent.stationary();
  if (policy == SolvePolicy::kPowerIteration) {
    util::StatusOr<linalg::Vector> power =
        try_stationary_distribution(p, SolvePolicy::kPowerIteration);
    if (!power.ok()) return power.status();
    pi = std::move(*power);
  }
  util::Status positive = util::check_strictly_positive(pi, "resolvent pi");
  if (!positive.is_ok()) return positive;
  const bool sparse = resolvent.sparse();
  if (level == AnalysisLevel::kStationary)
    return ResolventAnalysis{ChainAnalysis{p, std::move(pi), {}, {}}, sparse,
                             std::move(resolvent)};

  util::StatusOr<linalg::Matrix> g = resolvent.try_inverse();
  if (!g.ok()) return g.status();
  // Z = A# + W with A# = G − 𝟙(πᵀG) (Eqs. 6–7), evaluated in that order.
  const std::size_t n = pi.size();
  const linalg::Vector pi_g = linalg::mul(pi, *g);
  linalg::Matrix z(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) z(i, j) = (*g)(i, j) - pi_g[j] + pi[j];
  util::StatusOr<linalg::Matrix> r = try_first_passage_times(z, pi);
  if (!r.ok()) return r.status();
  return ResolventAnalysis{
      ChainAnalysis{p, std::move(pi), std::move(z), std::move(*r)}, sparse,
      std::nullopt};
}

}  // namespace

util::StatusOr<ResolventAnalysis> try_resolvent_analysis(
    const TransitionMatrix& p, SolvePolicy policy, AnalysisLevel level) {
  obs::ScopedPhase phase("chain.full_solve");
  util::Status input = util::check_row_stochastic(p.csr());
  if (!input.is_ok()) return input;

  util::StatusOr<Resolvent> resolvent = Resolvent::try_factor(p, policy);
  if (!resolvent.ok()) return resolvent.status();
  const bool sparse = resolvent->sparse();
  util::StatusOr<ResolventAnalysis> solved =
      analyze_through(std::move(*resolvent), p, policy, level);
  if (solved.ok() || !sparse) return solved;
  // The sparse ladder agrees with the dense factorization well inside the
  // 1e-10 parity contract; a failure past the factorization (a stalled
  // Krylov column of G, a non-positive π) reruns the analysis dense.
  record_sparse_fallback(solved.status());
  resolvent = Resolvent::try_factor(p, SolvePolicy::kDense);
  if (!resolvent.ok()) return resolvent.status();
  return analyze_through(std::move(*resolvent), p, policy, level);
}

}  // namespace mocos::markov
