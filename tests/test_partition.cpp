#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/linalg/sparse_matrix.hpp"

namespace mocos::linalg {
namespace {

TEST(BandwidthOrdering, RecoversBandOfShuffledPath) {
  // A path graph labeled by a stride permutation has bandwidth ~n/2; RCM
  // must bring it back to 1.
  const std::size_t n = 32;
  std::vector<std::size_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = (i * 17) % n;
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    trips.push_back({label[i], label[i + 1], 0.5});
    trips.push_back({label[i + 1], label[i], 0.5});
  }
  for (std::size_t i = 0; i < n; ++i) trips.push_back({i, i, 0.5});
  const auto sp = SparseMatrix::from_triplets(n, n, trips);

  std::size_t shuffled = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = sp.row_offsets()[i]; e < sp.row_offsets()[i + 1];
         ++e) {
      const std::size_t j = sp.col_indices()[e];
      shuffled = std::max(shuffled, i > j ? i - j : j - i);
    }
  const BandOrdering& order = sp.pattern().band_ordering();
  EXPECT_GT(shuffled, 4u);
  EXPECT_EQ(order.bandwidth, 1u);
  for (std::size_t a = 0; a < n; ++a)
    EXPECT_EQ(order.position[order.perm[a]], a);

  // Deterministic, and computed once per pattern.
  EXPECT_EQ(order.perm, SparseMatrix::from_triplets(n, n, trips)
                            .pattern()
                            .band_ordering()
                            .perm);
  EXPECT_EQ(&order, &sp.pattern().band_ordering());
}

}  // namespace
}  // namespace mocos::linalg
