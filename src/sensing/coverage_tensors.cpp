#include "src/sensing/coverage_tensors.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/geometry/city_topology.hpp"

namespace mocos::sensing {

void CoverageTensors::build(const MotionModel& model, linalg::Pattern pattern,
                            double coverage_reach) {
  const std::size_t n = model.num_pois();
  durations_ = linalg::SparseMatrix(pattern);
  distances_ = linalg::SparseMatrix(pattern);
  const auto& offsets = pattern->row_offsets();
  const auto& cols = pattern->col_indices();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t e = offsets[j]; e < offsets[j + 1]; ++e) {
      durations_.values()[e] = model.transition_duration(j, cols[e]);
      distances_.values()[e] = model.travel_distance(j, cols[e]);
    }
  }

  // Every PoI is a candidate on an unrestricted problem. On a support, a
  // PoI covered during j -> k sits within `coverage_reach` of some route
  // point, hence within route_length + reach of j: one neighbour sweep at
  // the largest such radius gives sound per-source candidate lists, so the
  // O(M) scan of all PoIs per transition collapses to O(local density).
  std::vector<std::vector<std::size_t>> candidates;
  if (coverage_reach > 0.0) {
    double max_radius = coverage_reach;
    for (double d : distances_.values())
      max_radius = std::max(max_radius, d + coverage_reach);
    candidates = geometry::radius_neighbors(model.topology(), max_radius);
  }
  std::vector<std::size_t> everyone(n);
  for (std::size_t i = 0; i < n; ++i) everyone[i] = i;

  // Ascending (j, k) appends each PoI's entries already sorted. Exact on
  // purpose: absent coverage is an exact 0 by the model conventions;
  // thresholding would drop real (small) coverage.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t e = offsets[j]; e < offsets[j + 1]; ++e) {
      const std::size_t k = cols[e];
      for (std::size_t i : candidates.empty() ? everyone : candidates[j]) {
        const double v = model.coverage_during(j, k, i);
        // mocos-lint: allow(float-eq)
        if (v != 0.0) entries_[i].push_back({j, k, v, e});
      }
    }
  }
}

CoverageTensors::CoverageTensors(const MotionModel& model)
    : entries_(model.num_pois()) {
  const std::size_t n = model.num_pois();
  build(model, linalg::SparsityPattern::full(n, n), 0.0);
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
  for (const auto& row : support_)
    for (std::size_t k : row)
      if (k >= n)
        throw std::invalid_argument(
            "CoverageTensors: support index out of range");
  build(model, linalg::SparsityPattern::from_rows(n, support_),
        coverage_reach);
}

std::size_t tensor_slot(const linalg::SparseMatrix& durations, std::size_t j,
                        std::size_t k) {
  const std::size_t slot = durations.pattern().find(j, k);
  if (slot == linalg::SparsityPattern::npos)
    throw std::invalid_argument(
        "transition (" + std::to_string(j) + ", " + std::to_string(k) +
        ") is outside the problem's support");
  return slot;
}

CoverageSums coverage_sums(
    const std::vector<std::vector<CoverageEntry>>& entries,
    const linalg::SparseMatrix& durations, const linalg::Vector& pi,
    const linalg::SparseMatrix& p) {
  CoverageSums sums;
  sums.covered.resize(entries.size());
  sums.expected = visit_coverage_sums(
      entries, durations, pi, p,
      [&sums](std::size_t i, double covered, double) {
        sums.covered[i] = covered;
      });
  return sums;
}

}  // namespace mocos::sensing
