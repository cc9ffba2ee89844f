#include "src/partition/spatial_partition.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace mocos::partition {
namespace {

TEST(BandwidthOrdering, RecoversBandOfShuffledPath) {
  // A path graph labeled by a stride permutation has bandwidth ~n/2; RCM
  // must bring it back to 1.
  const std::size_t n = 32;
  std::vector<std::size_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = (i * 17) % n;
  std::vector<sparse::Triplet> trips;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    trips.push_back({label[i], label[i + 1], 0.5});
    trips.push_back({label[i + 1], label[i], 0.5});
  }
  for (std::size_t i = 0; i < n; ++i) trips.push_back({i, i, 0.5});
  const auto sp = sparse::SparseMatrix::from_triplets(n, n, trips);

  std::vector<std::size_t> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  const std::size_t shuffled = pattern_bandwidth(sp, identity);
  const auto perm = bandwidth_ordering(sp);
  const std::size_t banded = pattern_bandwidth(sp, perm);
  EXPECT_GT(shuffled, 4u);
  EXPECT_EQ(banded, 1u);

  // Deterministic.
  EXPECT_EQ(perm, bandwidth_ordering(sp));
}

}  // namespace
}  // namespace mocos::partition
