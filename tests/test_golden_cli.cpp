// Golden-file regression tests for the CLI's user-visible output: the
// single-run report and the --batch --summary JSON. The goldens live in
// tests/golden/ next to the fixture configs; MOCOS_GOLDEN_DIR is injected by
// the build so the tests run from any working directory.
//
// Comparison is float-tolerant: both texts are split into alternating
// text/number segments, text must match byte-for-byte, numbers must agree to
// rel 1e-6 / abs 1e-9. That pins the output *shape* and the reproduced
// values while staying robust to last-digit libm differences across
// platforms.
//
// To regenerate after an intentional output change:
//   MOCOS_GOLDEN_UPDATE=1 ./tests/mocos_tests --gtest_filter='GoldenCli.*'
// then review the diff like any other code change.

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/cli.hpp"
#include "tests/temporary_file.hpp"

namespace mocos::cli {
namespace {

const char* golden_dir() { return MOCOS_GOLDEN_DIR; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Machine-specific paths (the goldens' own directory, the test temp dir)
/// are rewritten to stable placeholders before comparing.
std::string normalize(std::string text) {
  const std::vector<std::pair<std::string, std::string>> rules = {
      {std::string(golden_dir()), "<GOLDEN>"},
      {testing::TempDir(), "<TMP>/"}};
  for (const auto& [needle, repl] : rules) {
    std::size_t at = 0;
    while ((at = text.find(needle, at)) != std::string::npos) {
      text.replace(at, needle.size(), repl);
      at += repl.size();
    }
  }
  return text;
}

struct Segment {
  bool numeric = false;
  std::string text;   // verbatim text, or the number's spelling
  double value = 0.0; // parsed value when numeric
};

/// Splits text into alternating literal and numeric segments. A number is
/// [-+]?digits[.digits][(e|E)[+-]digits]; the sign is only folded in when
/// not immediately preceded by an alphanumeric (so "grid:2x2" stays text
/// and "1e-4" parses whole).
std::vector<Segment> tokenize(const std::string& text) {
  std::vector<Segment> segs;
  std::string lit;
  std::size_t i = 0;
  const auto flush = [&] {
    if (!lit.empty()) segs.push_back({false, lit, 0.0});
    lit.clear();
  };
  while (i < text.size()) {
    std::size_t start = i;
    if ((text[i] == '+' || text[i] == '-') && i + 1 < text.size() &&
        std::isdigit(static_cast<unsigned char>(text[i + 1])) &&
        (i == 0 || !std::isalnum(static_cast<unsigned char>(text[i - 1]))))
      ++i;
    if (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i])))
        ++i;
      if (i < text.size() && text[i] == '.') {
        ++i;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i])))
          ++i;
      }
      if (i + 1 < text.size() && (text[i] == 'e' || text[i] == 'E')) {
        std::size_t j = i + 1;
        if (j < text.size() && (text[j] == '+' || text[j] == '-')) ++j;
        if (j < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[j]))) {
          i = j;
          while (i < text.size() &&
                 std::isdigit(static_cast<unsigned char>(text[i])))
            ++i;
        }
      }
      flush();
      const std::string spelling = text.substr(start, i - start);
      segs.push_back({true, spelling, std::strtod(spelling.c_str(), nullptr)});
    } else {
      lit += text[start];
      i = start + 1;
    }
  }
  flush();
  return segs;
}

testing::AssertionResult matches_golden(const std::string& actual,
                                        const std::string& golden_name) {
  const std::string path = std::string(golden_dir()) + "/" + golden_name;
  if (std::getenv("MOCOS_GOLDEN_UPDATE") != nullptr) {
    std::ofstream out(path);
    out << actual;
    return testing::AssertionSuccess() << "golden updated: " << path;
  }
  const std::string expected = read_file(path);
  const std::vector<Segment> want = tokenize(expected);
  const std::vector<Segment> got = tokenize(actual);
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t k = 0; k < n; ++k) {
    if (want[k].numeric && got[k].numeric) {
      const double tol = 1e-9 + 1e-6 * std::abs(want[k].value);
      if (std::abs(want[k].value - got[k].value) > tol)
        return testing::AssertionFailure()
               << golden_name << ": number mismatch at segment " << k << ": "
               << want[k].text << " vs " << got[k].text;
    } else if (want[k].numeric != got[k].numeric ||
               want[k].text != got[k].text) {
      return testing::AssertionFailure()
             << golden_name << ": text mismatch at segment " << k << ":\n"
             << "  expected: \"" << want[k].text << "\"\n"
             << "  actual:   \"" << got[k].text << "\"";
    }
  }
  if (want.size() != got.size())
    return testing::AssertionFailure()
           << golden_name << ": segment count differs (expected "
           << want.size() << ", got " << got.size() << ")";
  return testing::AssertionSuccess();
}

TEST(GoldenCli, SingleRunReport) {
  std::ostringstream out, err;
  const int code =
      run_cli({std::string(golden_dir()) + "/single.conf"}, out, err);
  EXPECT_EQ(code, kExitSuccess) << err.str();
  EXPECT_TRUE(matches_golden(normalize(out.str()), "single_run.golden"));
}

TEST(GoldenCli, BatchSummaryJson) {
  const test::TemporaryFile summary_file("golden_summary.json");
  std::ostringstream out, err;
  const int code = run_cli({"--batch", std::string(golden_dir()) + "/batch",
                            "--summary", summary_file.path()},
                           out, err);
  // b_bad_algorithm.conf fails by design: the batch completes partially.
  EXPECT_EQ(code, kExitBatchPartialFailure);
  const std::string summary = read_file(summary_file.path());
  // The --summary file and stdout carry the identical JSON document.
  EXPECT_EQ(summary, out.str());
  EXPECT_TRUE(matches_golden(normalize(summary), "batch_summary.golden"));
}

TEST(GoldenCli, ObservabilityFlagsDoNotPerturbSingleRunReport) {
  // The observability contract (DESIGN.md §10): --metrics/--trace must not
  // change a single byte of the report — no tokenizer tolerance here.
  const std::string conf = std::string(golden_dir()) + "/single.conf";
  std::ostringstream plain_out, plain_err;
  ASSERT_EQ(run_cli({conf}, plain_out, plain_err), kExitSuccess)
      << plain_err.str();

  const test::TemporaryFile metrics_file("obs_single.json");
  const test::TemporaryFile trace_file("obs_single.ndjson");
  std::ostringstream obs_out, obs_err;
  ASSERT_EQ(run_cli({conf, "--metrics", metrics_file.path(), "--trace",
                     trace_file.path()},
                    obs_out, obs_err),
            kExitSuccess)
      << obs_err.str();

  EXPECT_EQ(plain_out.str(), obs_out.str());
  // Both sinks actually collected something.
  const std::string metrics = read_file(metrics_file.path());
  EXPECT_NE(metrics.find("\"descent.iterations\""), std::string::npos);
  const std::string trace = read_file(trace_file.path());
  EXPECT_NE(trace.find("\"ph\":\"B\",\"name\":\"cli.run\""),
            std::string::npos);
}

TEST(GoldenCli, ObservabilityFlagsDoNotPerturbBatchSummary) {
  const std::string batch_dir = std::string(golden_dir()) + "/batch";
  const test::TemporaryFile plain_summary("obs_plain.json");
  std::ostringstream plain_out, plain_err;
  ASSERT_EQ(run_cli({"--batch", batch_dir, "--summary", plain_summary.path()},
                    plain_out, plain_err),
            kExitBatchPartialFailure);

  const test::TemporaryFile obs_summary("obs_batch.json");
  const test::TemporaryFile metrics_file("obs_batch_m.json");
  const test::TemporaryFile trace_file("obs_batch.ndjson");
  std::ostringstream obs_out, obs_err;
  ASSERT_EQ(run_cli({"--batch", batch_dir, "--summary", obs_summary.path(),
                     "--metrics", metrics_file.path(), "--trace",
                     trace_file.path()},
                    obs_out, obs_err),
            kExitBatchPartialFailure);

  EXPECT_EQ(plain_out.str(), obs_out.str());
  EXPECT_EQ(read_file(plain_summary.path()), read_file(obs_summary.path()));
  const std::string metrics = read_file(metrics_file.path());
  EXPECT_NE(metrics.find("\"batch.scenarios\""), std::string::npos);
  const std::string trace = read_file(trace_file.path());
  EXPECT_NE(trace.find("\"name\":\"batch.scenario\""), std::string::npos);
}

}  // namespace
}  // namespace mocos::cli
