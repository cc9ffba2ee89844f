#include "src/linalg/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "src/linalg/norms.hpp"
#include "src/util/rng.hpp"
#include "tests/helpers.hpp"

namespace mocos::linalg {
namespace {

linalg::Matrix random_sparse_dense(std::size_t n, double density,
                                   util::Rng& rng) {
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.uniform() < density) m(i, j) = rng.uniform(-2.0, 2.0);
  return m;
}

TEST(SparseMatrix, FromTripletsSortsSumsDuplicatesAndDropsZeroSums) {
  // Unsorted input with a duplicate pair and a pair that cancels exactly.
  const SparseMatrix a = SparseMatrix::from_triplets(
      3, 3,
      {{2, 1, 4.0}, {0, 2, 1.5}, {0, 0, 1.0}, {0, 2, 0.5}, {1, 1, 3.0},
       {1, 1, -3.0}});
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_EQ(a.nnz(), 3u);  // (0,0), (0,2) summed, (2,1); (1,1) cancelled
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
  // CSR invariants: offsets non-decreasing, columns strictly increasing.
  ASSERT_EQ(a.row_offsets().size(), 4u);
  EXPECT_EQ(a.row_offsets().back(), a.nnz());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t k = a.row_offsets()[i] + 1; k < a.row_offsets()[i + 1];
         ++k)
      EXPECT_LT(a.col_indices()[k - 1], a.col_indices()[k]);
  }
}

TEST(SparseMatrix, FromTripletsRejectsBadInput) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      SparseMatrix::from_triplets(
          2, 2, {{0, 0, std::numeric_limits<double>::quiet_NaN()}}),
      std::invalid_argument);
}

TEST(SparseMatrix, DenseRoundTripIsExact) {
  util::Rng rng(11);
  const linalg::Matrix m = random_sparse_dense(17, 0.2, rng);
  const SparseMatrix sp = SparseMatrix::from_dense(m);
  const linalg::Matrix back = sp.to_dense();
  ASSERT_EQ(back.rows(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_EQ(back(i, j), m(i, j)) << i << "," << j;
}

TEST(SparseMatrix, DensityCountsStoredEntries) {
  const SparseMatrix a =
      SparseMatrix::from_triplets(4, 4, {{0, 0, 1.0}, {3, 3, 2.0}});
  EXPECT_DOUBLE_EQ(a.density(), 2.0 / 16.0);
  EXPECT_DOUBLE_EQ(SparseMatrix().density(), 0.0);
}

TEST(SparseMatrix, MatvecMatchesDense) {
  util::Rng rng(23);
  const linalg::Matrix m = random_sparse_dense(31, 0.15, rng);
  const SparseMatrix sp = SparseMatrix::from_dense(m);
  linalg::Vector x(31);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  const linalg::Vector y = sp.matvec(x);
  const linalg::Vector yt = sp.transpose_matvec(x);
  for (std::size_t i = 0; i < 31; ++i) {
    double dense = 0.0, dense_t = 0.0;
    for (std::size_t j = 0; j < 31; ++j) {
      dense += m(i, j) * x[j];
      dense_t += m(j, i) * x[j];
    }
    EXPECT_NEAR(y[i], dense, 1e-13);
    EXPECT_NEAR(yt[i], dense_t, 1e-13);
  }
}

TEST(SparseMatrix, TransposedMatchesDenseTranspose) {
  util::Rng rng(37);
  const linalg::Matrix m = random_sparse_dense(12, 0.3, rng);
  const SparseMatrix t = SparseMatrix::from_dense(m).transposed();
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j)
      EXPECT_EQ(t.at(j, i), m(i, j));
}

TEST(SparseMatrix, AtReturnsZeroForMissingEntries) {
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, {{1, 2, 5.0}});
  EXPECT_DOUBLE_EQ(a.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 0.0);
}

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
