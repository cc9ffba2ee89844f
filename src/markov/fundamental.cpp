#include "src/markov/fundamental.hpp"

#include <utility>

#include "src/linalg/guard.hpp"
#include "src/linalg/lu.hpp"
#include "src/markov/resolvent.hpp"

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
  util::StatusOr<ResolventAnalysis> solved =
      try_resolvent_analysis(p, policy, level);
  if (!solved.ok()) return solved.status();
  return std::move(solved->chain);
}

}  // namespace mocos::markov
