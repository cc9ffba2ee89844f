#include "src/core/serialization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "tests/helpers.hpp"
#include "tests/temporary_file.hpp"

namespace mocos::core {
namespace {

TEST(Serialization, RoundTripsToLastUlp) {
  // The text carries max_digits10 precision; the only loss is the
  // deserializer's defensive row renormalization (one division by a sum
  // within 1 ulp of 1.0).
  util::Rng rng(3);
  for (int t = 0; t < 10; ++t) {
    const auto p = test::random_positive_chain(3 + rng.index(5), rng);
    const auto q = deserialize_schedule(serialize_schedule(p));
    ASSERT_EQ(q.size(), p.size());
    EXPECT_TRUE(linalg::approx_equal(q.to_dense(), p.to_dense(), 1e-15));
  }
}

TEST(Serialization, FormatIsHumanReadable) {
  const std::string text =
      serialize_schedule(markov::TransitionMatrix::uniform(2));
  EXPECT_NE(text.find("mocos-schedule v1"), std::string::npos);
  EXPECT_NE(text.find("pois 2"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
}

TEST(Serialization, RejectsCorruptInput) {
  EXPECT_THROW(deserialize_schedule(""), std::invalid_argument);
  EXPECT_THROW(deserialize_schedule("wrong header\npois 2\n"),
               std::invalid_argument);
  EXPECT_THROW(deserialize_schedule("mocos-schedule v1\npois 1\n1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      deserialize_schedule("mocos-schedule v1\npois 2\n0.5 0.5\n0.5\n"),
      std::invalid_argument);
  EXPECT_THROW(deserialize_schedule(
                   "mocos-schedule v1\npois 2\n0.5 0.5\n0.5 0.5\n0.1\n"),
               std::invalid_argument);
  // Valid shape but not row-stochastic: the TransitionMatrix ctor rejects.
  EXPECT_THROW(
      deserialize_schedule("mocos-schedule v1\npois 2\n0.9 0.5\n0.5 0.5\n"),
      std::invalid_argument);
}

/// The schedule text as the stream writer printed it: every entry at
/// max_digits10 significant digits (%.17g).
std::string stream_form(const markov::TransitionMatrix& p) {
  std::ostringstream out;
  out << "mocos-schedule v1\npois " << p.size() << '\n'
      << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < p.size(); ++i)
    for (std::size_t j = 0; j < p.size(); ++j)
      out << p(i, j) << (j + 1 < p.size() ? " " : "\n");
  return out.str();
}

TEST(Serialization, WriterMatchesStreamFormatting) {
  for (const double v : {0.0, 1.0, 1e-12, 1.0 - 1e-12,
                         std::numeric_limits<double>::denorm_min()}) {
    const markov::TransitionMatrix p(
        linalg::Matrix{{v, 1.0 - v}, {1.0 - v, v}});
    EXPECT_EQ(serialize_schedule(p), stream_form(p)) << v;
  }
  // Seeded random rows at three magnitudes: uniform, uniform × 1e-10 and
  // subnormal, each row closed by its remainder in the last column.
  util::Rng rng(11);
  constexpr std::size_t kN = 64;
  for (const double scale : {1.0, 1e-10, 1e-310}) {
    linalg::Matrix m(kN, kN);
    for (std::size_t i = 0; i < kN; ++i) {
      double rem = 1.0;
      for (std::size_t j = 0; j + 1 < kN; ++j) {
        m(i, j) = rng.uniform() * scale / static_cast<double>(kN);
        rem -= m(i, j);
      }
      m(i, kN - 1) = rem;
    }
    const markov::TransitionMatrix p(std::move(m));
    EXPECT_EQ(serialize_schedule(p), stream_form(p)) << scale;
  }
}

TEST(Serialization, FileRoundTrip) {
  const test::TemporaryFile file("mocos_sched_test.txt");
  const std::string& path = file.path();
  util::Rng rng(4);
  const auto p = test::random_positive_chain(4, rng);
  save_schedule(path, p);
  const auto q = load_schedule(path);
  EXPECT_TRUE(linalg::approx_equal(p.to_dense(), q.to_dense(), 0.0));
  EXPECT_THROW(load_schedule("/nonexistent/sched.txt"), std::runtime_error);
  EXPECT_THROW(save_schedule("/nonexistent_dir_zz/s.txt", p),
               std::runtime_error);
}

TEST(Serialization, SavedFileMatchesSerializedText) {
  // save_schedule streams the rows it formats; the file must hold exactly
  // serialize_schedule's bytes, here for a support-restricted chain: a ring
  // whose rows store only themselves and their two neighbours.
  constexpr std::size_t kN = 7;
  std::vector<std::vector<std::size_t>> support(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    support[i] = {(i + kN - 1) % kN, i, (i + 1) % kN};
    std::sort(support[i].begin(), support[i].end());
  }
  util::Rng rng(21);
  linalg::SparseMatrix m(linalg::SparsityPattern::from_rows(kN, support));
  for (std::size_t i = 0; i < kN; ++i) {
    double sum = 0.0;
    for (std::size_t e = m.row_offsets()[i]; e < m.row_offsets()[i + 1];
         ++e) {
      m.values()[e] = 0.05 + rng.uniform();
      sum += m.values()[e];
    }
    for (std::size_t e = m.row_offsets()[i]; e < m.row_offsets()[i + 1]; ++e)
      m.values()[e] /= sum;
  }
  const markov::TransitionMatrix p(std::move(m));
  ASSERT_FALSE(p.pattern().is_full());

  const test::TemporaryFile file("mocos_sched_support.txt");
  save_schedule(file.path(), p);
  std::ifstream in(file.path(), std::ios::binary);
  std::ostringstream saved;
  saved << in.rdbuf();
  EXPECT_EQ(saved.str(), serialize_schedule(p));
}

}  // namespace
}  // namespace mocos::core
