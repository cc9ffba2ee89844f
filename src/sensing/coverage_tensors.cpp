#include "src/sensing/coverage_tensors.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/geometry/city_topology.hpp"

namespace mocos::sensing {

namespace {
// Appends T_jk,i to PoI i's list when it is nonzero. Exact on purpose:
// absent coverage is an exact 0 by the model conventions; thresholding
// would drop real (small) coverage.
void append_coverage(const MotionModel& model, std::size_t j, std::size_t k,
                     std::size_t i,
                     std::vector<std::vector<CoverageEntry>>& entries) {
  const double v = model.coverage_during(j, k, i);
  // mocos-lint: allow(float-eq)
  if (v != 0.0) entries[i].push_back({j, k, v});
}
}  // namespace

void CoverageTensors::build_dense_matrices(const MotionModel& model) {
  const std::size_t n = model.num_pois();
  durations_ = linalg::Matrix(n, n);
  distances_ = linalg::Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      durations_(j, k) = model.transition_duration(j, k);
      distances_(j, k) = model.travel_distance(j, k);
    }
  }
}

CoverageTensors::CoverageTensors(const MotionModel& model)
    : entries_(model.num_pois()) {
  const std::size_t n = model.num_pois();
  build_dense_matrices(model);
  // Ascending j, then k, appends each PoI's entries already sorted.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i)
        append_coverage(model, j, k, i, entries_);
}

CoverageTensors::CoverageTensors(
    const MotionModel& model,
    const std::vector<std::vector<std::size_t>>& support,
    double coverage_reach)
    : entries_(model.num_pois()), support_(support) {
  const std::size_t n = model.num_pois();
  if (support_.size() != n)
    throw std::invalid_argument("CoverageTensors: support size mismatch");
  if (!(coverage_reach > 0.0))
    throw std::invalid_argument(
        "CoverageTensors: non-positive coverage reach");
  build_dense_matrices(model);

  // A PoI covered during j -> k sits within `coverage_reach` of some route
  // point, hence within route_length + reach of j. One neighbour sweep at
  // the largest such radius gives sound per-source candidate lists, so the
  // O(M) scan of all PoIs per transition collapses to O(local density).
  double max_radius = coverage_reach;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k : support_[j])
      max_radius = std::max(max_radius,
                            model.travel_distance(j, k) + coverage_reach);
  const std::vector<std::vector<std::size_t>> candidates =
      geometry::radius_neighbors(model.topology(), max_radius);

  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k : support_[j]) {
      if (k >= n)
        throw std::invalid_argument(
            "CoverageTensors: support index out of range");
      for (std::size_t i : candidates[j])
        append_coverage(model, j, k, i, entries_);
    }
  }
  // Ascending (j, k) per PoI: the support lists are sorted but the outer
  // iteration appends per source PoI, which already yields (j, k) order.
  for (auto& list : entries_) {
    std::sort(list.begin(), list.end(),
              [](const CoverageEntry& a, const CoverageEntry& b) {
                return a.j != b.j ? a.j < b.j : a.k < b.k;
              });
  }
}

CoverageSums coverage_sums(
    const std::vector<std::vector<CoverageEntry>>& entries,
    const linalg::Matrix& durations, const linalg::Vector& pi,
    const linalg::Matrix& p) {
  const std::size_t n = durations.rows();
  if (entries.size() != n || pi.size() != n || p.rows() != n)
    throw std::invalid_argument("coverage_sums: size mismatch");
  CoverageSums sums;
  // Exact zero transitions (the structural zeros of a support-restricted
  // chain) contribute nothing to Ē, so skipping them is lossless.
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = pi[j];
    for (std::size_t k = 0; k < n; ++k) {
      const double pjk = p(j, k);
      // mocos-lint: allow(float-eq)
      if (pjk != 0.0) sums.expected += pj * pjk * durations(j, k);
    }
  }
  sums.covered.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double covered = 0.0;
    for (const CoverageEntry& e : entries[i])
      covered += pi[e.j] * p(e.j, e.k) * e.value;
    sums.covered[i] = covered;
  }
  return sums;
}

}  // namespace mocos::sensing
