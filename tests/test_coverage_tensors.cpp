#include "src/sensing/travel_model.hpp"
#include "src/sensing/coverage_tensors.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/geometry/city_topology.hpp"
#include "src/geometry/paper_topologies.hpp"

namespace mocos::sensing {
namespace {

// Σ_i T_jk,i per transition, summed from the entry lists.
linalg::Matrix total_coverage(const CoverageTensors& t) {
  const std::size_t n = t.num_pois();
  linalg::Matrix total(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (const CoverageEntry& e : t.coverage_entries(i))
      total(e.j, e.k) += e.value;
  return total;
}

TEST(CoverageTensors, DurationsMatchModel) {
  TravelModel model(geometry::paper_topology(3), 1.0, 1.0, 0.25);
  CoverageTensors t(model);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_DOUBLE_EQ(t.durations()(j, k), model.transition_duration(j, k));
}

TEST(CoverageTensors, CoverageMatchesModel) {
  // Every nonzero T_jk,i is one entry holding exactly coverage_during; a
  // zero has no entry. Strictly ascending (j, k) rules out duplicates.
  for (int topo = 1; topo <= 4; ++topo) {
    TravelModel model(geometry::paper_topology(topo), 1.0, 1.0, 0.25);
    CoverageTensors t(model);
    const std::size_t n = model.num_pois();
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<CoverageEntry>& list = t.coverage_entries(i);
      std::size_t next = 0;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) {
          const double v = model.coverage_during(j, k, i);
          const bool listed = next < list.size() && list[next].j == j &&
                              list[next].k == k;
          if (v == 0.0) {
            EXPECT_FALSE(listed) << "topology " << topo << " i=" << i
                                 << " j=" << j << " k=" << k;
            continue;
          }
          ASSERT_TRUE(listed) << "topology " << topo << " i=" << i
                              << " j=" << j << " k=" << k;
          EXPECT_EQ(list[next].value, v);
          ++next;
        }
      }
      EXPECT_EQ(next, list.size()) << "entries out of (j, k) order";
    }
  }
}

TEST(CoverageTensors, CoverageNeverExceedsDuration) {
  TravelModel model(geometry::paper_topology(4), 1.0, 1.0, 0.25);
  CoverageTensors t(model);
  for (std::size_t i = 0; i < 9; ++i)
    for (const CoverageEntry& e : t.coverage_entries(i))
      EXPECT_LE(e.value, t.durations()(e.j, e.k) + 1e-12);
}

TEST(CoverageTensors, TotalCoveragePerTransitionBounded) {
  // PoIs are disjoint, so summed pass-by coverage cannot exceed duration.
  TravelModel model(geometry::paper_topology(3), 1.0, 1.0, 0.25);
  CoverageTensors t(model);
  const linalg::Matrix total = total_coverage(t);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_LE(total(j, k), t.durations()(j, k) + 1e-12);
}

TEST(CoverageTensors, SupportListsTheUnrestrictedEntriesOnTheSupport) {
  geometry::CityConfig cfg;
  cfg.count = 36;
  cfg.seed = 3;
  TravelModel model(geometry::city_topology(cfg), 1.0, 1.0, 0.1);
  const auto support = geometry::radius_neighbors(model.topology(), 1.6);
  const CoverageTensors all(model);
  const CoverageTensors restricted(model, support, 0.1);
  EXPECT_TRUE(all.support().empty());
  EXPECT_EQ(restricted.support(), support);
  for (std::size_t i = 0; i < 36; ++i) {
    std::vector<CoverageEntry> expect;
    for (const CoverageEntry& e : all.coverage_entries(i)) {
      const auto& row = support[e.j];
      if (std::binary_search(row.begin(), row.end(), e.k)) expect.push_back(e);
    }
    const std::vector<CoverageEntry>& got = restricted.coverage_entries(i);
    ASSERT_EQ(got.size(), expect.size()) << "i=" << i;
    for (std::size_t n = 0; n < got.size(); ++n) {
      EXPECT_EQ(got[n].j, expect[n].j);
      EXPECT_EQ(got[n].k, expect[n].k);
      EXPECT_EQ(got[n].value, expect[n].value);
    }
  }
}

TEST(CoverageTensors, OutOfRangeThrows) {
  TravelModel model(geometry::paper_topology(1), 1.0, 1.0, 0.25);
  CoverageTensors t(model);
  EXPECT_THROW(t.coverage_entries(4), std::out_of_range);
}

}  // namespace
}  // namespace mocos::sensing
