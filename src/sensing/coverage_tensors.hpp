#pragma once

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.hpp"
#include "src/sensing/motion_model.hpp"

namespace mocos::sensing {

/// One stored coverage value T_jk,i: PoI i is covered for `value` time units
/// during the transition j -> k.
struct CoverageEntry {
  std::size_t j = 0;
  std::size_t k = 0;
  double value = 0.0;
};

/// Precomputed physical-time tensors of §III-A, built once per problem:
///
///   durations(j,k)      = T_jk    (travel j->k + pause at k; T_jj = P_j)
///   coverage_entries(i) = T_jk,i  (time PoI i is covered during j->k)
///
/// A PoI is covered only on the few routes that pass it, so T_jk,i is stored
/// as per-PoI (j, k, value) entry lists holding its nonzeros. An unrestricted
/// problem lists them over all M² transitions; a support-restricted one only
/// over its support (the transitions its chain may take), which is what
/// makes M = 1024+ problems buildable at all. Durations and distances stay
/// dense (O(M²)).
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
  const linalg::Matrix& durations() const { return durations_; }

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

  /// Travel distances d_jk for the energy objective.
  const linalg::Matrix& distances() const { return distances_; }

 private:
  void build_dense_matrices(const MotionModel& model);

  linalg::Matrix durations_;
  linalg::Matrix distances_;
  std::vector<std::vector<CoverageEntry>> entries_;
  std::vector<std::vector<std::size_t>> support_;
};

/// The two chain-weighted sums every coverage objective reads (Eqs. 2, 4,
/// 12):
///
///   covered[i] = Σ_{j,k} π_j p_jk T_jk,i   (over PoI i's entries)
///   expected   = Σ_{j,k} π_j p_jk T_jk     (Ē, over the dense durations)
///
/// The coverage share is C̄_i = covered[i] / expected and the coverage
/// deviation is g_i = covered[i] − Φ_i · expected.
struct CoverageSums {
  std::vector<double> covered;
  double expected = 0.0;
};

/// CoverageSums of the chain (π, P) over `entries` and `durations` (the
/// lists and matrix of a CoverageTensors, or a cost term's copies of them).
/// Throws std::invalid_argument unless all four have the same size M.
CoverageSums coverage_sums(
    const std::vector<std::vector<CoverageEntry>>& entries,
    const linalg::Matrix& durations, const linalg::Vector& pi,
    const linalg::Matrix& p);

}  // namespace mocos::sensing
