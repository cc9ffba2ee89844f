#include "src/markov/group_inverse.hpp"

#include <utility>

#include "src/markov/fundamental.hpp"

namespace mocos::markov {

linalg::Matrix group_inverse(const linalg::Matrix& p,
                             const linalg::Vector& pi) {
  return try_group_inverse(p, pi).value();
}

util::StatusOr<linalg::Matrix> try_group_inverse(const linalg::Matrix& p,
                                                 const linalg::Vector& pi) {
  util::StatusOr<linalg::Matrix> z = try_fundamental_matrix(p, pi);
  if (!z.ok()) return z.status();
  return std::move(*z) - stationary_rows(pi);
}

bool satisfies_group_inverse_axioms(const linalg::Matrix& a,
                                    const linalg::Matrix& g, double tol) {
  if (!a.is_square() || a.rows() != g.rows() || a.cols() != g.cols())
    return false;
  const linalg::Matrix ag = a * g;
  const linalg::Matrix ga = g * a;
  return linalg::approx_equal(ag * a, a, tol) &&
         linalg::approx_equal(ga * g, g, tol) &&
         linalg::approx_equal(ag, ga, tol);
}

}  // namespace mocos::markov
