#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/linalg/sparse_matrix.hpp"
#include "src/sensing/motion_model.hpp"

namespace mocos::sensing {

/// One stored coverage value T_jk,i: PoI i is covered for `value` time units
/// during the transition j -> k, which sits at `slot` of the problem's
/// pattern (CoverageTensors::pattern()).
struct CoverageEntry {
  std::size_t j = 0;
  std::size_t k = 0;
  double value = 0.0;
  std::size_t slot = 0;
};

/// Precomputed physical-time tensors of §III-A, built once per problem:
///
///   durations(j,k)      = T_jk    (travel j->k + pause at k; T_jj = P_j)
///   coverage_entries(i) = T_jk,i  (time PoI i is covered during j->k)
///
/// Everything lives on the problem's pattern: the transitions its chain may
/// take, all M² of them for an unrestricted problem and only the support
/// for a support-restricted one. Durations and distances are values on that
/// pattern. A PoI is covered only on the few routes that pass it, so T_jk,i
/// is stored as per-PoI (j, k, value, slot) entry lists holding its
/// nonzeros. Keeping all of it on the support is what makes M = 1024+
/// problems buildable at all.
class CoverageTensors {
 public:
  /// Entries over every transition.
  explicit CoverageTensors(const MotionModel& model);

  /// Entries over a support. `support[j]` lists the destinations k
  /// reachable from j (self included). `coverage_reach` must upper-bound the
  /// distance from any point of a route at which a PoI can still be
  /// collecting coverage (the sensing radius for disc sensing) — it prunes
  /// the candidate PoIs per transition without dropping any true entry.
  CoverageTensors(const MotionModel& model,
                  const std::vector<std::vector<std::size_t>>& support,
                  double coverage_reach);

  std::size_t num_pois() const { return durations_.rows(); }
  /// T_jk on the pattern.
  const linalg::SparseMatrix& durations() const { return durations_; }
  /// The transitions the chain may take. support_uniform_start builds P on
  /// this very object, so the terms read T_jk, d_jk and the entries' p_jk
  /// by slot.
  const linalg::Pattern& pattern() const {
    return durations_.shared_pattern();
  }

  /// Coverage entries of PoI i, sorted by (j, k); std::out_of_range past M.
  const std::vector<CoverageEntry>& coverage_entries(std::size_t i) const {
    return entries_.at(i);
  }

  /// Every PoI's entry list: entries()[i] == coverage_entries(i).
  const std::vector<std::vector<CoverageEntry>>& entries() const {
    return entries_;
  }

  /// The support adjacency the tensors were built over; empty when every
  /// transition is allowed.
  const std::vector<std::vector<std::size_t>>& support() const {
    return support_;
  }

  /// Travel distances d_jk for the energy objective, on the pattern.
  const linalg::SparseMatrix& distances() const { return distances_; }

 private:
  /// Durations, distances and coverage entries over `pattern`.
  void build(const MotionModel& model, linalg::Pattern pattern,
             double coverage_reach);

  linalg::SparseMatrix durations_;
  linalg::SparseMatrix distances_;
  std::vector<std::vector<CoverageEntry>> entries_;
  std::vector<std::vector<std::size_t>> support_;
};

/// The two chain-weighted sums every coverage objective reads (Eqs. 2, 4,
/// 12):
///
///   covered[i] = Σ_{j,k} π_j p_jk T_jk,i   (over PoI i's entries)
///   expected   = Σ_{j,k} π_j p_jk T_jk     (Ē, over P's stored entries)
///
/// The coverage share is C̄_i = covered[i] / expected and the coverage
/// deviation is g_i = covered[i] − Φ_i · expected.
struct CoverageSums {
  std::vector<double> covered;
  double expected = 0.0;
};

/// CoverageSums of the chain (π, P) over `entries` and `durations` (the
/// lists and matrix of a CoverageTensors, or a cost term's copies of them).
/// A P on the tensors' own pattern reads T_jk and p_jk by slot; a P on a
/// sub-pattern looks them up by (j, k). Throws std::invalid_argument unless
/// all four have the same size M, or when P stores a transition off the
/// tensors' pattern.
CoverageSums coverage_sums(
    const std::vector<std::vector<CoverageEntry>>& entries,
    const linalg::SparseMatrix& durations, const linalg::Vector& pi,
    const linalg::SparseMatrix& p);

/// Slot of T_jk in `durations` for P's entry (j, k); std::invalid_argument
/// when the tensors' pattern lacks it (P leaves the support).
std::size_t tensor_slot(const linalg::SparseMatrix& durations, std::size_t j,
                        std::size_t k);

/// The one traversal behind coverage_sums, without its per-PoI vector:
/// sums `expected` over P's stored entries, then hands each PoI's
/// covered[i] to `visit(i, covered_i, expected)` in PoI order, and returns
/// `expected`. The cost terms read the sums through it; coverage_sums
/// collects them. Throws as coverage_sums.
template <class Visit>
double visit_coverage_sums(
    const std::vector<std::vector<CoverageEntry>>& entries,
    const linalg::SparseMatrix& durations, const linalg::Vector& pi,
    const linalg::SparseMatrix& p, Visit&& visit) {
  const std::size_t n = durations.rows();
  if (entries.size() != n || pi.size() != n || p.rows() != n)
    throw std::invalid_argument("coverage_sums: size mismatch");
  // The descent's P sits on the tensors' own pattern: slots line up.
  const bool same = p.pattern() == durations.pattern();
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const std::vector<double>& pv = p.values();
  const std::vector<double>& tv = durations.values();
  double expected = 0.0;
  // Exact zero transitions (explicit zeros on P's pattern) contribute
  // nothing to Ē, so skipping them is lossless.
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = pi[j];
    for (std::size_t e = offsets[j]; e < offsets[j + 1]; ++e) {
      const double pjk = pv[e];
      // mocos-lint: allow(float-eq)
      if (pjk == 0.0) continue;
      const double t = tv[same ? e : tensor_slot(durations, j, cols[e])];
      expected += pj * pjk * t;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double covered = 0.0;
    for (const CoverageEntry& e : entries[i])
      covered += pi[e.j] * (same ? pv[e.slot] : p(e.j, e.k)) * e.value;
    visit(i, covered, expected);
  }
  return expected;
}

}  // namespace mocos::sensing
