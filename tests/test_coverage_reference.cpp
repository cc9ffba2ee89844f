// The entry-list coverage sums against the dense O(M³) formulas of
// tests/coverage_reference.hpp: the coverage term, coverage_shares,
// compute_metrics and the information term must agree with them to 1e-12
// relative on the paper topologies, an obstacle-routed model and an 8x8
// grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/cli/cli.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/information_term.hpp"
#include "src/cost/metrics.hpp"
#include "tests/coverage_reference.hpp"
#include "tests/helpers.hpp"

namespace mocos::cost {
namespace {

constexpr double kRelTol = 1e-12;

struct Scenario {
  std::string name;
  core::Problem problem;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (int t = 1; t <= 4; ++t)
    out.push_back({"paper topology " + std::to_string(t),
                   test::paper_problem(t, 1.0, 1.0)});
  // The obstacle model of examples/patrol.conf.
  out.push_back({"patrol obstacle model",
                 cli::build_problem(util::Config::parse_string(
                     "topology = grid:2x3\n"
                     "targets = 0.3,0.1,0.1,0.1,0.1,0.3\n"
                     "cell = 2.0\nspeed = 1.5\npause = 1.0\nradius = 0.4\n"
                     "obstacle = rect:2.2,1.6,3.8,2.4\nclearance = 0.05\n"))});
  out.push_back({"grid:8x8", cli::build_problem(util::Config::parse_string(
                                 "topology = grid:8x8\n"))});
  return out;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

double max_abs(const linalg::Matrix& a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j)));
  return m;
}

// ‖actual − expect‖∞ ≤ kRelTol · ‖expect‖∞.
void expect_rel_near(const std::vector<double>& actual,
                     const std::vector<double>& expect, const char* what) {
  ASSERT_EQ(actual.size(), expect.size()) << what;
  std::vector<double> diff(actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i)
    diff[i] = actual[i] - expect[i];
  EXPECT_LE(max_abs(diff), kRelTol * max_abs(expect)) << what;
}

void expect_rel_near(const linalg::Matrix& actual, const linalg::Matrix& expect,
                     const char* what) {
  double diff = 0.0;
  for (std::size_t i = 0; i < actual.rows(); ++i)
    for (std::size_t j = 0; j < actual.cols(); ++j)
      diff = std::max(diff, std::abs(actual(i, j) - expect(i, j)));
  EXPECT_LE(diff, kRelTol * max_abs(expect)) << what;
}

void expect_rel_near(double actual, double expect, const char* what) {
  EXPECT_LE(std::abs(actual - expect), kRelTol * std::abs(expect)) << what;
}

// A few random strictly positive chains of the scenario's size.
std::vector<markov::ChainAnalysis> chains_for(std::size_t n) {
  util::Rng rng(20 + n);
  std::vector<markov::ChainAnalysis> out;
  for (int t = 0; t < 3; ++t)
    out.push_back(test::unwrap(markov::try_analyze_chain(
        test::random_positive_chain(n, rng), markov::SolvePolicy::kAuto,
        markov::AnalysisLevel::kStationary)));
  return out;
}

TEST(CoverageReference, CoverageTermMatchesDenseKernels) {
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const core::Problem& problem = s.problem;
    const std::size_t n = problem.num_pois();
    const test::DenseCoverage dense(problem.model());
    std::vector<double> alphas(n);
    for (std::size_t i = 0; i < n; ++i)
      alphas[i] = 1.0 + 0.25 * static_cast<double>(i % 4);
    const CoverageDeviationTerm term(problem.tensors(), problem.targets(),
                                     alphas);
    for (const markov::ChainAnalysis& chain : chains_for(n)) {
      const linalg::Vector g_ref =
          test::dense_discrepancies(dense, chain, problem.targets());
      expect_rel_near(term.discrepancies(chain), g_ref, "g_i");
      double u_ref = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        u_ref += 0.5 * alphas[i] * g_ref[i] * g_ref[i];
      expect_rel_near(term.value(chain), u_ref, "U_cov");

      Partials got(n, false);
      Partials ref(n, false);
      term.accumulate_partials(chain, got);
      test::dense_coverage_partials(dense, chain, problem.targets(), alphas,
                                    ref);
      expect_rel_near(got.du_dpi, ref.du_dpi, "dU/dpi");
      expect_rel_near(got.du_dp.to_dense(), ref.du_dp.to_dense(), "dU/dp");
    }
  }
}

TEST(CoverageReference, SharesAndMetricsMatchDense) {
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const core::Problem& problem = s.problem;
    const test::DenseCoverage dense(problem.model());
    for (const markov::ChainAnalysis& chain : chains_for(problem.num_pois())) {
      const std::vector<double> shares_ref =
          test::dense_coverage_shares(dense, chain);
      expect_rel_near(coverage_shares(chain, problem.tensors()), shares_ref,
                      "coverage_shares");
      const Metrics m =
          compute_metrics(chain, problem.tensors(), problem.targets());
      expect_rel_near(m.c_share, shares_ref, "Metrics::c_share");
      expect_rel_near(m.delta_c,
                      test::dense_delta_c(dense, chain, problem.targets()),
                      "Metrics::delta_c");
    }
  }
}

TEST(CoverageReference, InformationTermMatchesDense) {
  for (const Scenario& s : scenarios()) {
    SCOPED_TRACE(s.name);
    const core::Problem& problem = s.problem;
    const std::size_t n = problem.num_pois();
    const test::DenseCoverage dense(problem.model());
    // Every third PoI has no event stream, exercising the rate-0 skip.
    std::vector<double> rates(n);
    for (std::size_t i = 0; i < n; ++i)
      rates[i] = 0.5 * static_cast<double>(i % 3);
    const double gamma = 1.7;
    const InformationCaptureTerm term(problem.tensors(), rates, gamma);
    for (const markov::ChainAnalysis& chain : chains_for(n)) {
      const double j_ref = test::dense_capture_rate(dense, chain, rates);
      expect_rel_near(term.capture_rate(chain), j_ref, "J");
      expect_rel_near(term.value(chain), -gamma * j_ref, "U_J");

      Partials got(n, false);
      Partials ref(n, false);
      term.accumulate_partials(chain, got);
      test::dense_information_partials(dense, chain, rates, gamma, ref);
      expect_rel_near(got.du_dpi, ref.du_dpi, "dU/dpi");
      expect_rel_near(got.du_dp.to_dense(), ref.du_dp.to_dense(), "dU/dp");
    }
  }
}

}  // namespace
}  // namespace mocos::cost
