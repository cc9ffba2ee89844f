#include "src/markov/stationary.hpp"

#include <cmath>
#include <string>

#include "src/linalg/lu.hpp"
#include "src/linalg/norms.hpp"
#include "src/partition/block_solver.hpp"
#include "src/sparse/sparse_matrix.hpp"
#include "src/util/fault_injection.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::markov {

namespace {

/// Normalizes a candidate π in place and validates it: finite, no mass below
/// -tol, unit sum. Returns the offending condition otherwise.
util::Status finish_distribution(linalg::Vector& pi, double negative_tol) {
  util::Status finite = util::check_finite(pi, "pi");
  if (!finite.is_ok()) return finite;
  double sum = 0.0;
  for (double x : pi) {
    if (x < -negative_tol)
      return util::Status(
          util::StatusCode::kNotErgodic,
          "stationary solve produced negative mass " + std::to_string(x) +
              " (chain not ergodic?)");
    sum += x;
  }
  if (!(sum > 0.0) || !std::isfinite(sum))
    return util::Status(util::StatusCode::kNotErgodic,
                        "stationary solve produced zero total mass");
  for (double& x : pi) x = std::max(x, 0.0) / sum;
  return util::Status::ok();
}

util::StatusOr<linalg::Vector> try_direct(const TransitionMatrix& p) {
  if (util::fault::fire(util::fault::Site::kStationary))
    return util::Status(util::StatusCode::kSingularMatrix,
                        "stationary solve failed (fault injection)");
  const std::size_t n = p.size();
  // B = I - P^T + ones; B pi = 1.
  linalg::Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      b(i, j) = (i == j ? 1.0 : 0.0) - p(j, i) + 1.0;
  util::StatusOr<linalg::LuDecomposition> lu =
      linalg::LuDecomposition::try_factor(std::move(b));
  if (!lu.ok()) return lu.status();
  linalg::Vector pi = lu->solve(linalg::Vector(n, 1.0));
  const util::Status status = finish_distribution(pi, 1e-9);
  if (!status.is_ok()) return status;
  return pi;
}

util::StatusOr<linalg::Vector> try_power(const TransitionMatrix& p) {
  linalg::Vector pi = stationary_power_iteration(p);
  util::Status status = finish_distribution(pi, 0.0);
  if (!status.is_ok()) return status;
  // Power iteration always returns *something*; insist it is actually a
  // fixed point so periodic/reducible chains are reported, not mis-solved.
  const linalg::Vector next = linalg::mul(pi, p.matrix());
  const double residual = linalg::norm1(linalg::vsub(next, pi));
  if (!(residual < 1e-8))
    return util::Status(
        util::StatusCode::kNotErgodic,
        "power iteration did not converge to a fixed point (residual " +
            std::to_string(residual) + ")");
  return pi;
}

}  // namespace

linalg::Vector stationary_power_iteration(const TransitionMatrix& p,
                                          std::size_t max_iters, double tol) {
  const std::size_t n = p.size();
  linalg::Vector x(n, 1.0 / static_cast<double>(n));
  for (std::size_t it = 0; it < max_iters; ++it) {
    linalg::Vector next = linalg::mul(x, p.matrix());
    const double change = linalg::norm1(linalg::vsub(next, x));
    x = std::move(next);
    if (change < tol) break;
  }
  double sum = 0.0;
  for (double v : x) sum += v;
  for (double& v : x) v /= sum;
  return x;
}

util::StatusOr<linalg::Vector> try_stationary_distribution(
    const TransitionMatrix& p, SolvePolicy policy) {
  // Sparse-routed chains go through the block aggregation/disaggregation
  // solver first; any failure (single block, decoupled blocks, slow A/D
  // convergence) silently falls through to the dense system. The power
  // rung is a recovery path and never dispatches sparse.
  if (routes_sparse(policy, p.matrix())) {
    const sparse::SparseMatrix sp =
        sparse::SparseMatrix::from_dense(p.matrix());
    const partition::Blocks blocks = partition::structural_blocks(sp, {});
    util::StatusOr<linalg::Vector> pi =
        partition::try_block_stationary(sp, blocks);
    if (pi.ok()) return pi;
  }
  return policy == SolvePolicy::kPowerIteration ? try_power(p) : try_direct(p);
}

}  // namespace mocos::markov
