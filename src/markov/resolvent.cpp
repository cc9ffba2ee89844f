#include "src/markov/resolvent.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/linalg/guard.hpp"
#include "src/markov/passage_times.hpp"
#include "src/markov/stationary.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"

namespace mocos::markov {

namespace {

/// Writes the resolvent system I − P + 𝟙cᵀ with the fixed reference vector
/// c = 𝟙/M row-major into `a`, in one pass over each row's entries and its
/// stored transitions. Unlike I − P + W it does not depend on π, so one
/// factorization yields π as well as Z. Each entry is (δ_ij − p_ij) + c,
/// with p_ij = 0 off the pattern.
void write_resolvent_system(const linalg::SparseMatrix& p, double* a) {
  const std::size_t n = p.rows();
  const double c = 1.0 / static_cast<double>(n);
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const std::vector<double>& values = p.values();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = a + i * n;
    std::size_t e = offsets[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double delta = i == j ? 1.0 : 0.0;
      if (e < offsets[i + 1] && cols[e] == j) {
        row[j] = delta - values[e] + c;
        ++e;
      } else {
        row[j] = delta + c;
      }
    }
  }
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
  util::StatusOr<sparse::SparseResolvent> ladder =
      sparse::SparseResolvent::try_factor(p, c);
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
  Resolvent res;
  util::Status status = res.try_refactor(p, policy);
  if (!status.is_ok()) return status;
  return res;
}

util::Status Resolvent::try_refactor(const TransitionMatrix& p,
                                     SolvePolicy policy) {
  factored_ = false;
  sparse_.reset();
  const std::size_t n = p.size();
  c_.assign(n, 1.0 / static_cast<double>(n));
  if (routes_sparse(policy, p.csr())) {
    util::Status sparse = try_factor_sparse(p.csr(), c_);
    if (sparse.is_ok()) {
      obs::count("markov.sparse.solves");
      factored_ = true;
      return sparse;
    }
    record_sparse_fallback(sparse);
  }
  util::Status lu = dense_.try_refactor(
      n, [&p](double* a) { write_resolvent_system(p.csr(), a); });
  if (!lu.is_ok()) return lu;
  // πᵀA = cᵀ: one transposed solve against the same factors.
  dense_.solve_transposed_into(c_, pi_, work_);
  double sum = 0.0;
  for (double x : pi_) sum += x;
  for (double& x : pi_) x /= sum;
  util::Status finite = util::check_finite(pi_, "resolvent pi");
  if (!finite.is_ok()) return finite;
  factored_ = true;
  return util::Status::ok();
}

util::Status Resolvent::check_factored() const {
  if (factored_) return util::Status::ok();
  return util::Status(util::StatusCode::kInternal,
                      "Resolvent: no factorization held");
}

util::StatusOr<linalg::Vector> Resolvent::try_fundamental_apply(
    const linalg::Vector& pi, const linalg::Vector& v) const {
  util::Status factored = check_factored();
  if (!factored.is_ok()) return factored;
  linalg::Vector gv;
  if (sparse_) {
    util::StatusOr<linalg::Vector> solved = sparse_->try_apply(v);
    if (!solved.ok()) return solved.status();
    gv = std::move(*solved);
  } else {
    gv = dense_.solve(v);
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
  util::Status factored = check_factored();
  if (!factored.is_ok()) return factored;
  if (sparse_) return sparse_->try_inverse();
  linalg::Matrix g = dense_.inverse();
  util::Status finite = util::check_finite(g, "resolvent G");
  if (!finite.is_ok()) return finite;
  return g;
}

namespace {

/// The rest of the analysis `level` asks for, through out.resolvent, which
/// holds p's factorization.
util::Status analyze_through(const TransitionMatrix& p, SolvePolicy policy,
                             AnalysisLevel level, ResolventAnalysis& out) {
  const Resolvent& resolvent = *out.resolvent;
  ChainAnalysis& chain = out.chain;
  if (policy == SolvePolicy::kPowerIteration) {
    util::StatusOr<linalg::Vector> power =
        try_stationary_distribution(p, SolvePolicy::kPowerIteration);
    if (!power.ok()) return power.status();
    chain.pi = std::move(*power);
  } else {
    chain.pi = resolvent.stationary();
  }
  util::Status positive =
      util::check_strictly_positive(chain.pi, "resolvent pi");
  if (!positive.is_ok()) return positive;
  out.sparse = resolvent.sparse();
  chain.p = p;
  if (level == AnalysisLevel::kStationary) {
    chain.z = linalg::Matrix();
    chain.r = linalg::Matrix();
    return util::Status::ok();
  }

  util::StatusOr<linalg::Matrix> g = resolvent.try_inverse();
  if (!g.ok()) return g.status();
  // Z = A# + W with A# = G − 𝟙(πᵀG) (Eqs. 6–7), evaluated in that order.
  const linalg::Vector& pi = chain.pi;
  const std::size_t n = pi.size();
  const linalg::Vector pi_g = linalg::mul(pi, *g);
  linalg::Matrix z(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) z(i, j) = (*g)(i, j) - pi_g[j] + pi[j];
  util::StatusOr<linalg::Matrix> r = try_first_passage_times(z, pi);
  if (!r.ok()) return r.status();
  chain.z = std::move(z);
  chain.r = std::move(*r);
  out.resolvent.reset();
  return util::Status::ok();
}

}  // namespace

util::StatusOr<ResolventAnalysis> try_resolvent_analysis(
    const TransitionMatrix& p, SolvePolicy policy, AnalysisLevel level) {
  ResolventAnalysis out{ChainAnalysis{p, {}, {}, {}}, false, std::nullopt};
  util::Status status = try_resolvent_analysis_into(p, policy, level, out);
  if (!status.is_ok()) return status;
  return out;
}

util::Status try_resolvent_analysis_into(const TransitionMatrix& p,
                                         SolvePolicy policy,
                                         AnalysisLevel level,
                                         ResolventAnalysis& out) {
  obs::ScopedPhase phase("chain.full_solve");
  util::Status input = util::check_row_stochastic(p.csr());
  if (!input.is_ok()) return input;

  if (!out.resolvent) out.resolvent.emplace();
  util::Status factored = out.resolvent->try_refactor(p, policy);
  if (!factored.is_ok()) return factored;
  const bool sparse = out.resolvent->sparse();
  util::Status solved = analyze_through(p, policy, level, out);
  if (solved.is_ok() || !sparse) return solved;
  // The sparse ladder agrees with the dense factorization well inside the
  // 1e-10 parity contract; a failure past the factorization (a stalled
  // Krylov column of G, a non-positive π) reruns the analysis dense. A
  // failed analyze_through keeps out.resolvent.
  record_sparse_fallback(solved);
  factored = out.resolvent->try_refactor(p, SolvePolicy::kDense);
  if (!factored.is_ok()) return factored;
  return analyze_through(p, policy, level, out);
}

}  // namespace mocos::markov
