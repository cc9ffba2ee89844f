#include "src/partition/block_solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/linalg/lu.hpp"
#include "src/markov/passage_times.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/sparse/resolvent_solver.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::partition {

namespace {

/// Sherman–Morrison denominators below this are treated as a failed direct
/// rung (the anchored system sits too close to the 𝟙cᵀ null direction).
constexpr double kAnchorDenominatorFloor = 1e-8;

double inf_norm_diff(const linalg::Vector& a, const linalg::Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace

util::StatusOr<linalg::Vector> try_block_stationary(
    const sparse::SparseMatrix& p, const Blocks& blocks,
    const SparseAnalysisConfig& config, const runtime::ExecutionContext& ctx,
    SparseSolveStats* stats) {
  SparseSolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || blocks.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_block_stationary: P/partition size mismatch");
  const std::size_t num_blocks = blocks.count();
  stats->blocks = num_blocks;
  stats->off_block_mass = max_off_block_row_mass(p, blocks);
  if (num_blocks < 2)
    return util::Status(util::StatusCode::kInvalidConfig,
                        "try_block_stationary: partition has a single block, "
                        "nothing to aggregate");

  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& vals = p.values();

  // Prefactor every block's (I − P_kkᵀ) once; the factors are reused by all
  // sweeps. Blocks fan out over the context into index-addressed slots.
  std::vector<std::optional<linalg::LuDecomposition>> block_lu(num_blocks);
  std::vector<util::Status> factor_status(num_blocks, util::Status::ok());
  // Block-local index of each PoI, so row scatter is O(nnz).
  std::vector<std::size_t> local_of(n, 0);
  for (std::size_t k = 0; k < num_blocks; ++k)
    for (std::size_t s = 0; s < blocks.members[k].size(); ++s)
      local_of[blocks.members[k][s]] = s;
  runtime::parallel_for(ctx, num_blocks, [&](std::size_t k) {
    const auto& members = blocks.members[k];
    const std::size_t m = members.size();
    linalg::Matrix system(m, m, 0.0);
    for (std::size_t s = 0; s < m; ++s) system(s, s) = 1.0;
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t i = members[s];
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        const std::size_t j = cols[e];
        if (blocks.block_of[j] != k) continue;
        // (I − P_kkᵀ) in block-local indices: entry (local j, local i).
        system(local_of[j], s) -= vals[e];
      }
    }
    util::StatusOr<linalg::LuDecomposition> lu =
        linalg::LuDecomposition::try_factor(std::move(system));
    if (lu.ok())
      block_lu[k] = std::move(*lu);
    else
      factor_status[k] = lu.status();
  });
  for (std::size_t k = 0; k < num_blocks; ++k) {
    if (!factor_status[k].is_ok())
      return util::Status(
          util::StatusCode::kSingularMatrix,
          "try_block_stationary: block " + std::to_string(k) +
              " system is singular (decoupled block?): " +
              factor_status[k].message());
  }

  linalg::Vector pi(n, 1.0 / static_cast<double>(n));
  linalg::Vector y(n, 0.0);  // yᵀ = πᵀP, recomputed each sweep
  for (std::size_t sweep = 1; sweep <= config.max_ad_sweeps; ++sweep) {
    stats->ad_sweeps = sweep;

    // --- Aggregation: solve the K×K coupling chain exactly. -------------
    linalg::Vector xi(num_blocks, 0.0);
    for (std::size_t i = 0; i < n; ++i) xi[blocks.block_of[i]] += pi[i];
    for (std::size_t k = 0; k < num_blocks; ++k) {
      if (!(xi[k] > 0.0) || !std::isfinite(xi[k]))
        return util::Status(util::StatusCode::kNotErgodic,
                            "try_block_stationary: block " +
                                std::to_string(k) +
                                " lost all probability mass during A/D");
    }
    linalg::Matrix coupling(num_blocks, num_blocks, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = pi[i] / xi[blocks.block_of[i]];
      const std::size_t k = blocks.block_of[i];
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
        coupling(k, blocks.block_of[cols[e]]) += u * vals[e];
    }
    // Solve the K×K coupling chain through the dense system
    // (I − Cᵀ + 𝟙𝟙ᵀ) ξ = 𝟙 directly — calling back into the markov
    // stationary dispatch here could re-enter the sparse path on the
    // aggregate chain and recurse.
    linalg::Matrix agg_system(num_blocks, num_blocks);
    for (std::size_t k = 0; k < num_blocks; ++k)
      for (std::size_t l = 0; l < num_blocks; ++l)
        agg_system(k, l) = (k == l ? 1.0 : 0.0) - coupling(l, k) + 1.0;
    util::StatusOr<linalg::Vector> xi_next = linalg::try_solve(
        agg_system, linalg::Vector(num_blocks, 1.0));
    if (!xi_next.ok()) return xi_next.status();
    double xi_sum = 0.0;
    for (std::size_t k = 0; k < num_blocks; ++k) {
      if (!((*xi_next)[k] > 0.0) || !std::isfinite((*xi_next)[k]))
        return util::Status(util::StatusCode::kNotErgodic,
                            "try_block_stationary: coupling chain gave "
                            "non-positive mass to block " + std::to_string(k));
      xi_sum += (*xi_next)[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = blocks.block_of[i];
      pi[i] *= (*xi_next)[k] / (xi_sum * xi[k]);
    }

    // --- Disaggregation: block Gauss–Seidel-style refresh. ---------------
    // π_j = Σ_{i∈B_k} π_i p_ij + b_k(j) for j ∈ B_k, with the off-block
    // inflow b_k(j) = (πᵀP)_j − Σ_{i∈B_k} π_i p_ij frozen at the aggregated
    // iterate; each block then solves its prefactored (I − P_kkᵀ) system.
    p.transpose_matvec(pi, y);
    linalg::Vector next(n, 0.0);
    runtime::parallel_for(ctx, num_blocks, [&](std::size_t k) {
      const auto& members = blocks.members[k];
      const std::size_t m = members.size();
      linalg::Vector rhs(m);
      for (std::size_t s = 0; s < m; ++s) rhs[s] = y[members[s]];
      for (std::size_t s = 0; s < m; ++s) {
        const std::size_t i = members[s];
        for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
          const std::size_t j = cols[e];
          if (blocks.block_of[j] != k) continue;
          rhs[local_of[j]] -= pi[i] * vals[e];
        }
      }
      const linalg::Vector x = block_lu[k]->solve(rhs);
      for (std::size_t s = 0; s < m; ++s) next[members[s]] = x[s];
    });
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Round-off can push tiny components of a weakly-visited PoI below
      // zero; clamp before renormalizing (the residual gate still decides).
      if (next[i] < 0.0) next[i] = 0.0;
      mass += next[i];
    }
    if (!(mass > 0.0) || !std::isfinite(mass))
      return util::Status(util::StatusCode::kNotErgodic,
                          "try_block_stationary: disaggregation produced "
                          "non-positive total mass");
    for (std::size_t i = 0; i < n; ++i) pi[i] = next[i] / mass;

    p.transpose_matvec(pi, y);
    stats->ad_residual = inf_norm_diff(y, pi);
    if (stats->ad_residual <= config.ad_tolerance) {
      util::Status finite = util::check_finite(pi, "block stationary");
      if (!finite.is_ok()) return finite;
      return pi;
    }
  }
  return util::Status(
      util::StatusCode::kNotErgodic,
      "try_block_stationary: no convergence after " +
          std::to_string(config.max_ad_sweeps) + " sweeps (residual " +
          std::to_string(stats->ad_residual) + ", off-block mass " +
          std::to_string(stats->off_block_mass) + ")");
}

util::StatusOr<SparseResolvent> SparseResolvent::try_factor(
    const sparse::SparseMatrix& p, const linalg::Vector& c,
    const SparseAnalysisConfig& config, SparseSolveStats* stats) {
  SparseSolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const std::size_t n = p.rows();
  if (n < 2 || p.rows() != p.cols() || c.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "SparseResolvent: need square P (n >= 2) and a "
                        "matching reference vector");
  SparseResolvent res;
  res.c_ = c;

  // --- Rung 1: RCM + anchored banded LU + Sherman–Morrison. --------------
  std::vector<std::size_t> perm = bandwidth_ordering(p);
  const std::size_t bandwidth = pattern_bandwidth(p, perm);
  stats->bandwidth = bandwidth;
  const auto cap = static_cast<std::size_t>(
      config.bandwidth_cap_fraction * static_cast<double>(n));
  if (bandwidth <= cap) {
    std::vector<std::size_t> inv(n, 0);
    for (std::size_t a = 0; a < n; ++a) inv[perm[a]] = a;
    std::vector<sparse::Triplet> entries;
    entries.reserve(p.nnz());
    const auto& offsets = p.row_offsets();
    const auto& cols = p.col_indices();
    const auto& vals = p.values();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e)
        entries.push_back({inv[i], inv[cols[e]], vals[e]});
    const sparse::SparseMatrix permuted =
        sparse::SparseMatrix::from_triplets(n, n, entries);
    linalg::Vector c_perm(n);
    for (std::size_t a = 0; a < n; ++a) c_perm[a] = c[perm[a]];

    util::StatusOr<sparse::BandedResolventLu> lu =
        sparse::BandedResolventLu::try_factor(permuted, c_perm, bandwidth);
    if (lu.ok()) {
      // G = B⁻¹ − w(cᵀB⁻¹·)/denom with w = B⁻¹(𝟙 − e_{n−1}) and
      // denom = 1 + cᵀw.
      linalg::Vector w(n, 1.0);
      w[n - 1] = 0.0;
      lu->solve_inplace(w);
      double denom = 1.0;
      for (std::size_t i = 0; i < n; ++i) denom += c_perm[i] * w[i];
      if (std::isfinite(denom) && std::abs(denom) > kAnchorDenominatorFloor) {
        res.perm_ = std::move(perm);
        res.c_perm_ = std::move(c_perm);
        res.lu_ = std::move(*lu);
        res.w_ = std::move(w);
        res.denom_ = denom;
        stats->used_banded = true;
        return res;
      }
    }
    // Factorization or correction failed: demote to the iterative rung.
  }

  // --- Rung 2: BiCGSTAB on the full rank-one operator, per solve. --------
  res.p_ = p;
  stats->used_bicgstab = true;
  return res;
}

void SparseResolvent::banded_apply(linalg::Vector& x_perm) const {
  lu_->solve_inplace(x_perm);
  double cg = 0.0;
  for (std::size_t i = 0; i < x_perm.size(); ++i) cg += c_perm_[i] * x_perm[i];
  const double scale = cg / denom_;
  for (std::size_t i = 0; i < x_perm.size(); ++i) x_perm[i] -= scale * w_[i];
}

util::StatusOr<linalg::Vector> SparseResolvent::try_stationary() const {
  const std::size_t n = c_.size();
  linalg::Vector pi(n, 0.0);
  if (lu_) {
    linalg::Vector y = c_perm_;
    lu_->solve_transposed_inplace(y);
    for (std::size_t a = 0; a < n; ++a) pi[perm_[a]] = y[a];
  } else {
    // πᵀA = cᵀ: one Krylov solve with Aᵀ.
    const sparse::ResolventOperator op{&p_, linalg::Vector(n, 1.0), c_};
    util::StatusOr<linalg::Vector> y =
        sparse::try_solve_resolvent(op, c_, {}, nullptr, /*transpose=*/true);
    if (!y.ok()) return y.status();
    pi = std::move(*y);
  }
  double sum = 0.0;
  for (double x : pi) sum += x;
  for (double& x : pi) x /= sum;
  util::Status finite = util::check_finite(pi, "sparse resolvent pi");
  if (!finite.is_ok()) return finite;
  return pi;
}

util::StatusOr<linalg::Vector> SparseResolvent::try_apply(
    const linalg::Vector& v) const {
  const std::size_t n = c_.size();
  if (v.size() != n)
    return util::Status(util::StatusCode::kSizeMismatch,
                        "SparseResolvent::try_apply: size mismatch");
  if (!lu_) {
    const sparse::ResolventOperator op{&p_, linalg::Vector(n, 1.0), c_};
    return sparse::try_solve_resolvent(op, v);
  }
  linalg::Vector x(n);
  for (std::size_t a = 0; a < n; ++a) x[a] = v[perm_[a]];
  banded_apply(x);
  linalg::Vector out(n);
  for (std::size_t a = 0; a < n; ++a) out[perm_[a]] = x[a];
  util::Status finite = util::check_finite(out, "banded resolvent product");
  if (!finite.is_ok()) return finite;
  return out;
}

util::StatusOr<linalg::Matrix> SparseResolvent::try_inverse(
    const runtime::ExecutionContext& ctx) const {
  const std::size_t n = c_.size();
  if (lu_) {
    linalg::Matrix g_perm(n, n, 0.0);
    runtime::parallel_for(ctx, n, [&](std::size_t j) {
      linalg::Vector col(n, 0.0);
      col[j] = 1.0;
      banded_apply(col);
      for (std::size_t i = 0; i < n; ++i) g_perm(i, j) = col[i];
    });
    util::Status finite = util::check_finite(g_perm, "banded resolvent");
    if (!finite.is_ok()) return finite;
    linalg::Matrix g(n, n);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) g(perm_[a], perm_[b]) = g_perm(a, b);
    return g;
  }

  const sparse::ResolventOperator op{&p_, linalg::Vector(n, 1.0), c_};
  linalg::Matrix g(n, n, 0.0);
  std::vector<util::Status> column_status(n, util::Status::ok());
  runtime::parallel_for(ctx, n, [&](std::size_t j) {
    linalg::Vector e(n, 0.0);
    e[j] = 1.0;
    // G e_j solves (I − P + 𝟙cᵀ) x = e_j.
    util::StatusOr<linalg::Vector> x = sparse::try_solve_resolvent(op, e);
    if (!x.ok()) {
      column_status[j] = x.status();
      return;
    }
    for (std::size_t i = 0; i < n; ++i) g(i, j) = (*x)[i];
  });
  for (std::size_t j = 0; j < n; ++j)
    if (!column_status[j].is_ok()) return column_status[j];
  util::Status finite = util::check_finite(g, "iterative resolvent");
  if (!finite.is_ok()) return finite;
  return g;
}

util::StatusOr<markov::ChainAnalysis> try_sparse_analyze_chain(
    const markov::TransitionMatrix& p, const SparseAnalysisConfig& config,
    const runtime::ExecutionContext& ctx, SparseSolveStats* stats,
    markov::AnalysisLevel level) {
  SparseSolveStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = SparseSolveStats{};
  const std::size_t n = p.size();
  const sparse::SparseMatrix sp = sparse::SparseMatrix::from_dense(p.matrix());
  const linalg::Vector c(n, 1.0 / static_cast<double>(n));

  // Independent stationary estimate: block A/D first, sparse power
  // iteration as its recovery rung. Either way the estimate comes from a
  // different algorithm than the resolvent, so the agreement gate below is
  // a genuine cross-check, not a tautology.
  const Blocks blocks = structural_blocks(sp, config.partition);
  util::StatusOr<linalg::Vector> pi_check = [&] {
    obs::ScopedPhase phase("sparse.block_pi");
    util::StatusOr<linalg::Vector> est =
        try_block_stationary(sp, blocks, config, ctx, stats);
    if (!est.ok()) {
      est = sparse::try_stationary_power_sparse(sp);
      if (est.ok()) stats->used_power_crosscheck = true;
    }
    return est;
  }();
  if (!pi_check.ok()) return pi_check.status();

  util::StatusOr<SparseResolvent> resolvent = [&] {
    obs::ScopedPhase phase("sparse.resolvent");
    return SparseResolvent::try_factor(sp, c, config, stats);
  }();
  if (!resolvent.ok()) return resolvent.status();
  util::StatusOr<linalg::Vector> pi = resolvent->try_stationary();
  if (!pi.ok()) return pi.status();
  util::Status positive = util::check_strictly_positive(*pi, "sparse pi");
  if (!positive.is_ok()) return positive;

  stats->pi_gap = inf_norm_diff(*pi, *pi_check);
  if (stats->pi_gap > config.pi_agreement_tol)
    return util::Status(
        util::StatusCode::kNotErgodic,
        "try_sparse_analyze_chain: resolvent and block stationary "
        "estimates disagree (gap " +
            std::to_string(stats->pi_gap) + " > " +
            std::to_string(config.pi_agreement_tol) + ")");
  if (level == markov::AnalysisLevel::kStationary)
    return markov::ChainAnalysis{p, std::move(*pi), {}, {}};

  // A# = G − 𝟙(πᵀG), Z = A# + W, R from (Z, π) — Eqs. 6–8.
  util::StatusOr<linalg::Matrix> g = [&] {
    obs::ScopedPhase phase("sparse.resolvent");
    return resolvent->try_inverse(ctx);
  }();
  if (!g.ok()) return g.status();
  const linalg::Vector pi_g = linalg::mul(*pi, *g);
  linalg::Matrix z(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      z(i, j) = (*g)(i, j) - pi_g[j] + (*pi)[j];
  util::StatusOr<linalg::Matrix> r = [&] {
    obs::ScopedPhase phase("sparse.passage_times");
    return markov::try_first_passage_times(z, *pi);
  }();
  if (!r.ok()) return r.status();
  return markov::ChainAnalysis{p, std::move(*pi), std::move(z),
                               std::move(*r)};
}

}  // namespace mocos::partition
