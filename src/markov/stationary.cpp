#include "src/markov/stationary.hpp"

#include <cmath>
#include <string>

#include "src/linalg/guard.hpp"
#include "src/linalg/norms.hpp"
#include "src/markov/resolvent.hpp"
#include "src/util/fault_injection.hpp"

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

util::StatusOr<linalg::Vector> try_direct(const TransitionMatrix& p,
                                          SolvePolicy policy) {
  if (util::fault::fire(util::fault::Site::kStationary))
    return util::Status(util::StatusCode::kSingularMatrix,
                        "stationary solve failed (fault injection)");
  // The descent's own π solve: one factorization of the resolvent system
  // and one transposed solve, on the sparse ladder where `policy` routes P.
  util::StatusOr<Resolvent> resolvent =
      Resolvent::try_factor(p, policy);
  if (!resolvent.ok()) return resolvent.status();
  linalg::Vector pi = resolvent->stationary();
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
  const linalg::Vector next = p.csr().transpose_matvec(pi);
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
    linalg::Vector next = p.csr().transpose_matvec(x);
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
  return policy == SolvePolicy::kPowerIteration ? try_power(p)
                                                : try_direct(p, policy);
}

}  // namespace mocos::markov
