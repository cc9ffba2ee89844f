#include "src/sparse/resolvent_solver.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mocos::sparse {

namespace {

/// The Krylov solve's budget. The tolerance aims at the resolvent
/// analysis's ≤1e-10 parity contract: a 1e-13 relative residual
/// ‖b − A x‖₂ / ‖b‖₂ leaves the downstream π/Z/R derivations
/// indistinguishable from a direct solve on weakly-coupled chains.
constexpr std::size_t kMaxIterations = 500;
constexpr double kTolerance = 1e-13;

double dot(const linalg::Vector& a, const linalg::Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const linalg::Vector& a) { return std::sqrt(dot(a, a)); }

util::Status fail(util::StatusCode code, const std::string& what,
                  const SolveDiagnostics& d) {
  return util::Status(
      code, "sparse resolvent solve: " + what + " (iteration " +
                std::to_string(d.iterations) + ", relative residual " +
                std::to_string(d.residual) + ")");
}

}  // namespace

void ResolventOperator::apply(const linalg::Vector& x,
                              linalg::Vector& y) const {
  p->matvec(x, y);
  const double cx = dot(c, x);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] - y[i] + u[i] * cx;
}

void ResolventOperator::apply_transpose(const linalg::Vector& x,
                                        linalg::Vector& y) const {
  p->transpose_matvec(x, y);
  const double ux = dot(u, x);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] - y[i] + c[i] * ux;
}

linalg::Vector ResolventOperator::diagonal() const {
  const std::size_t n = size();
  linalg::Vector d(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) d[i] += u[i] * c[i] - p->at(i, i);
  return d;
}

util::StatusOr<linalg::Vector> try_solve_resolvent(
    const ResolventOperator& a, const linalg::Vector& b,
    SolveDiagnostics* diag, bool transpose) {
  const std::size_t n = a.size();
  SolveDiagnostics local;
  if (diag == nullptr) diag = &local;
  *diag = SolveDiagnostics{};
  if (a.p == nullptr || a.u.size() != n || a.c.size() != n ||
      b.size() != n || a.p->rows() != a.p->cols())
    return util::Status(util::StatusCode::kSizeMismatch,
                        "try_solve_resolvent: operator/rhs size mismatch");

  auto apply = [&](const linalg::Vector& x, linalg::Vector& y) {
    if (transpose)
      a.apply_transpose(x, y);
    else
      a.apply(x, y);
  };

  // Jacobi preconditioner M⁻¹ = diag(A)⁻¹ (same diagonal for Aᵀ). Entries
  // of the resolvent diagonal are 1 − p_ii + u_i c_i ≥ u_i c_i > 0 for
  // stochastic P and positive rank-one vectors, but guard anyway.
  linalg::Vector inv_diag = a.diagonal();
  for (double& d : inv_diag) {
    if (!(std::abs(d) > 1e-300))
      return util::Status(util::StatusCode::kSingularMatrix,
                          "try_solve_resolvent: zero diagonal entry");
    d = 1.0 / d;
  }

  const double bnorm = norm2(b);
  // mocos-lint: allow(float-eq)
  if (bnorm == 0.0) {
    diag->converged = true;
    return linalg::Vector(n, 0.0);  // exact: A·0 = 0 is the unique solution
  }

  // BiCGSTAB (van der Vorst) with right Jacobi preconditioning, x₀ = 0.
  linalg::Vector x(n, 0.0);
  linalg::Vector r = b;          // r₀ = b − A x₀ = b
  const linalg::Vector r0 = r;   // shadow residual
  linalg::Vector pvec(n, 0.0), v(n, 0.0), s(n), t(n), phat(n), shat(n);
  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;

  for (std::size_t it = 1; it <= kMaxIterations; ++it) {
    diag->iterations = it;
    const double rho = dot(r0, r);
    if (!(std::abs(rho) > 1e-300))
      return fail(util::StatusCode::kSingularMatrix, "rho breakdown", *diag);
    if (it == 1) {
      pvec = r;
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i)
        pvec[i] = r[i] + beta * (pvec[i] - omega * v[i]);
    }
    for (std::size_t i = 0; i < n; ++i) phat[i] = inv_diag[i] * pvec[i];
    apply(phat, v);
    const double r0v = dot(r0, v);
    if (!(std::abs(r0v) > 1e-300))
      return fail(util::StatusCode::kSingularMatrix, "alpha breakdown",
                  *diag);
    alpha = rho / r0v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    double snorm = norm2(s);
    if (!std::isfinite(snorm))
      return fail(util::StatusCode::kNonFiniteValue, "non-finite iterate",
                  *diag);
    if (snorm / bnorm <= kTolerance) {
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * phat[i];
      diag->residual = snorm / bnorm;
      diag->converged = true;
      return x;
    }

    for (std::size_t i = 0; i < n; ++i) shat[i] = inv_diag[i] * s[i];
    apply(shat, t);
    const double tt = dot(t, t);
    if (!(tt > 1e-300))
      return fail(util::StatusCode::kSingularMatrix, "omega breakdown",
                  *diag);
    omega = dot(t, s) / tt;
    if (!(std::abs(omega) > 1e-300))
      return fail(util::StatusCode::kSingularMatrix, "omega breakdown",
                  *diag);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    const double rnorm = norm2(r);
    if (!std::isfinite(rnorm))
      return fail(util::StatusCode::kNonFiniteValue, "non-finite residual",
                  *diag);
    diag->residual = rnorm / bnorm;
    if (diag->residual <= kTolerance) {
      diag->converged = true;
      return x;
    }
    rho_prev = rho;
  }
  return fail(util::StatusCode::kNotErgodic,
              "did not converge within the iteration budget", *diag);
}

}  // namespace mocos::sparse
