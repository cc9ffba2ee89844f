#include "tools/corpus/corpus_generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "src/util/config.hpp"

namespace mocos::corpus {
namespace {

TEST(Splitmix64, MatchesReferenceVectors) {
  // Reference outputs of Steele/Lea/Flood splitmix64 from seed 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454FULL);
}

TEST(Fnv1a64, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

TEST(CorpusGenerator, MeetsMinimumSizeWithWholeStrata) {
  CorpusOptions options;
  const auto scenarios = generate_corpus(options);
  EXPECT_GE(scenarios.size(), 1000u);
  EXPECT_GE(scenarios.size(), options.min_scenarios);
  // Every stratum gets the same number of variants, so the total divides
  // evenly by the per-variant stratum count.
  std::set<std::tuple<std::string, std::size_t, std::string, std::string>>
      strata;
  for (const Scenario& s : scenarios)
    strata.insert({s.family, s.size, s.target_skew, s.mix});
  EXPECT_EQ(scenarios.size() % strata.size(), 0u);
}

TEST(CorpusGenerator, FirstBlockCoversEveryStratumOnce) {
  const auto scenarios = generate_corpus(CorpusOptions{});
  std::set<std::tuple<std::string, std::size_t, std::string, std::string>>
      strata;
  for (const Scenario& s : scenarios)
    strata.insert({s.family, s.size, s.target_skew, s.mix});
  std::set<std::tuple<std::string, std::size_t, std::string, std::string>>
      first_block;
  for (std::size_t i = 0; i < strata.size(); ++i) {
    const Scenario& s = scenarios[i];
    EXPECT_EQ(s.variant, 0u) << s.id;
    first_block.insert({s.family, s.size, s.target_skew, s.mix});
  }
  // Variant-outermost generation: the first |strata| scenarios are exactly
  // one per stratum, so strided slices are stratified by construction.
  EXPECT_EQ(first_block, strata);
}

TEST(CorpusGenerator, SameSeedIsByteIdentical) {
  const auto a = generate_corpus(CorpusOptions{});
  const auto b = generate_corpus(CorpusOptions{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].config, b[i].config);
    EXPECT_EQ(a[i].digest, b[i].digest);
  }
}

TEST(CorpusGenerator, DifferentSeedChangesScenarios) {
  CorpusOptions other;
  other.seed = 7;
  const auto a = generate_corpus(CorpusOptions{});
  const auto b = generate_corpus(other);
  ASSERT_EQ(a.size(), b.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].config != b[i].config) ++changed;
  // Optimizer seeds (and city map seeds) come from the stream, so nearly
  // every config should move; require a solid majority to stay robust to
  // modulus collisions.
  EXPECT_GT(changed, a.size() / 2);
}

TEST(CorpusGenerator, ConfigsParseAndCarryTheStratumKeys) {
  const auto scenarios = generate_corpus(CorpusOptions{});
  for (const Scenario& s : scenarios) {
    const util::Config config = util::Config::parse_string(s.config, s.id);
    EXPECT_TRUE(config.has("topology")) << s.id;
    EXPECT_TRUE(config.has("seed")) << s.id;
    EXPECT_TRUE(config.has("iterations")) << s.id;
    const bool has_capture = s.mix == "capture" ||
                             s.mix == "capture_minimax" || s.mix == "full";
    EXPECT_EQ(config.get_double("capture_weight", 0.0) > 0.0, has_capture)
        << s.id;
    const bool has_minimax = s.mix == "minimax" ||
                             s.mix == "capture_minimax" || s.mix == "full";
    EXPECT_EQ(config.get_double("minimax_weight", 0.0) > 0.0, has_minimax)
        << s.id;
    if (s.mix == "full") {
      EXPECT_EQ(config.get_size("smoothmax_anneal_stages", 1), 2u) << s.id;
    }
  }
}

TEST(SliceIndices, StridedAndStratified) {
  const auto idx = slice_indices(1200, 64);
  ASSERT_FALSE(idx.empty());
  EXPECT_EQ(idx.front(), 0u);
  EXPECT_GE(idx.size(), 64u);
  EXPECT_LE(idx.size(), 80u);
  for (std::size_t i = 1; i < idx.size(); ++i)
    EXPECT_EQ(idx[i] - idx[i - 1], idx[1] - idx[0]);
  // Degenerate cases: tiny corpora take every scenario.
  EXPECT_EQ(slice_indices(3, 64).size(), 3u);
}

TEST(Manifest, RowsMatchScenarioDigests) {
  CorpusOptions options;
  const auto scenarios = generate_corpus(options);
  const std::string manifest = manifest_text(options, scenarios);
  std::istringstream in(manifest);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++rows;
  }
  EXPECT_EQ(rows, scenarios.size());
  // Spot-check a row's digest column against the scenario's own digest.
  char expected[24];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(scenarios[0].digest));
  EXPECT_NE(manifest.find(std::string("\t") + expected + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace mocos::corpus
