// Integration tests: long Markov simulations must converge to the
// closed-form quantities of §III — coverage shares (Eq. 2), unit-transition
// exposures (Eq. 3), ΔC and Ē (Eqs. 12, 13). This is the paper's §VI-D
// validation ("the measured U in the simulations gives a close match with
// the computed U").

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/sensing/travel_model.hpp"
#include "src/cost/event_capture_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/cost/metrics.hpp"
#include "src/geometry/paper_topologies.hpp"
#include "src/sim/event_capture.hpp"
#include "src/sim/simulator.hpp"
#include "tests/helpers.hpp"

namespace mocos::sim {
namespace {

struct SimSetup {
  sensing::TravelModel model;
  sensing::CoverageTensors tensors;
  explicit SimSetup(int topo)
      : model(geometry::paper_topology(topo), 1.0, 1.0, 0.25),
        tensors(model) {}
};

class SimVsAnalyticTest : public ::testing::TestWithParam<int> {};

TEST_P(SimVsAnalyticTest, CoverageSharesConverge) {
  SimSetup s(GetParam());
  const std::size_t n = s.model.num_pois();
  util::Rng rng(300 + GetParam());
  const auto p = test::random_positive_chain(n, rng, 0.05);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto analytic = cost::coverage_shares(chain, s.tensors);

  SimulationConfig cfg;
  cfg.num_transitions = 300000;
  MarkovCoverageSimulator sim(s.model, cfg);
  const auto res = sim.run(p, rng);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(res.coverage_share[i], analytic[i], 0.01)
        << "PoI " << i << " topology " << GetParam();
}

TEST_P(SimVsAnalyticTest, ExposuresConverge) {
  SimSetup s(GetParam());
  const std::size_t n = s.model.num_pois();
  util::Rng rng(400 + GetParam());
  const auto p = test::random_positive_chain(n, rng, 0.05);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto analytic = cost::ExposureTerm::compute_mean_exposures(chain);

  SimulationConfig cfg;
  cfg.num_transitions = 300000;
  MarkovCoverageSimulator sim(s.model, cfg);
  const auto res = sim.run(p, rng);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(res.exposure_steps[i], analytic[i],
                0.05 * analytic[i] + 0.05)
        << "PoI " << i << " topology " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Topologies, SimVsAnalyticTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(SimVsAnalytic, DeltaCMatchesAnalytic) {
  SimSetup s(3);
  util::Rng rng(500);
  const auto p = test::random_positive_chain(4, rng, 0.05);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto targets = s.model.topology().targets();
  const auto m = cost::compute_metrics(chain, s.tensors, targets);

  SimulationConfig cfg;
  cfg.num_transitions = 400000;
  MarkovCoverageSimulator sim(s.model, cfg);
  const auto res = sim.run(p, rng);
  EXPECT_NEAR(res.delta_c(targets), m.delta_c,
              0.05 * m.delta_c + 1e-5);
}

TEST(SimVsAnalytic, EBarMatchesAnalytic) {
  SimSetup s(1);
  util::Rng rng(501);
  const auto p = test::random_positive_chain(4, rng, 0.05);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto m =
      cost::compute_metrics(chain, s.tensors, s.model.topology().targets());

  SimulationConfig cfg;
  cfg.num_transitions = 400000;
  MarkovCoverageSimulator sim(s.model, cfg);
  const auto res = sim.run(p, rng);
  EXPECT_NEAR(res.e_bar(), m.e_bar, 0.03 * m.e_bar);
}

TEST(SimVsAnalytic, Equation14CostMatches) {
  // β = 0 case: "the measured U gives a perfect match" — here sampling noise
  // is the only gap, so demand a tight tolerance.
  SimSetup s(2);
  util::Rng rng(502);
  const auto p = test::random_positive_chain(4, rng, 0.05);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));
  const auto targets = s.model.topology().targets();
  const auto m = cost::compute_metrics(chain, s.tensors, targets);

  SimulationConfig cfg;
  cfg.num_transitions = 400000;
  MarkovCoverageSimulator sim(s.model, cfg);
  const auto res = sim.run(p, rng);
  EXPECT_NEAR(res.cost(1.0, 0.0, targets), m.cost(1.0, 0.0),
              0.05 * m.cost(1.0, 0.0) + 1e-6);
}

/// Distance from PoI `k` to the straight segment between PoIs `a` and `b`.
double poi_to_segment(const geometry::Topology& topo, std::size_t a,
                      std::size_t b, std::size_t k) {
  const geometry::Vec2 pa = topo.position(a);
  const geometry::Vec2 d = topo.position(b) - pa;
  const geometry::Vec2 q = topo.position(k) - pa;
  const double len2 = d.x * d.x + d.y * d.y;
  const double t =
      std::clamp(len2 > 0.0 ? (q.x * d.x + q.y * d.y) / len2 : 0.0, 0.0, 1.0);
  const geometry::Vec2 gap = q - d * t;
  return std::sqrt(gap.x * gap.x + gap.y * gap.y);
}

/// Random ergodic chain supported only on transitions whose straight-line
/// path stays clear of every third PoI. On the line and grid topologies a
/// fully dense chain overflies intermediate PoIs in transit, capturing
/// events the stationary-hitting model cannot see; nearest-neighbour moves
/// (which this restriction keeps) leave all four paper topologies strongly
/// connected.
markov::TransitionMatrix clear_path_chain(const geometry::Topology& topo,
                                          util::Rng& rng, double margin) {
  const std::size_t n = topo.size();
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.1 + rng.uniform();
    double sum = m(i, i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      bool clear = true;
      for (std::size_t k = 0; k < n && clear; ++k)
        if (k != i && k != j) clear = poi_to_segment(topo, i, j, k) > margin;
      if (!clear) continue;
      m(i, j) = 0.05 + rng.uniform();
      sum += m(i, j);
    }
    for (std::size_t j = 0; j < n; ++j) m(i, j) /= sum;
  }
  return markov::TransitionMatrix(m);
}

class CaptureVsAnalyticTest : public ::testing::TestWithParam<int> {};

TEST_P(CaptureVsAnalyticTest, EventCaptureTermMatchesMonteCarlo) {
  // Matched regime for the analytic capture model: near-instant travel
  // (speed 200) makes one transition ~ one pause = one time unit, a small
  // sensing radius makes "covered" ~ "paused at the PoI", and the chain
  // support keeps transit paths clear of third PoIs, so the simulator's
  // wall-clock event window lines up with the term's window in transitions.
  // What remains is the term's documented exponentialization of the
  // residual hitting time — the tolerances below budget that modeling
  // error plus Monte Carlo noise (see DESIGN.md §14).
  const int topo = GetParam();
  sensing::TravelModel model(geometry::paper_topology(topo), 200.0, 1.0,
                             0.05);
  const std::size_t n = model.num_pois();
  util::Rng rng(600 + topo);
  const auto p = clear_path_chain(model.topology(), rng, 0.2);
  const auto chain = test::unwrap(markov::try_analyze_chain(p));

  const double duration = 2.0;
  const std::vector<double> rates(n, 1.5);
  const cost::EventCaptureTerm term(rates, duration, 1.0);
  const auto analytic = term.per_poi_capture(chain);

  EventCaptureConfig cfg;
  cfg.num_transitions = 60000;
  cfg.event_duration = duration;
  const auto res = EventCaptureSimulator(cfg).run(model, p, rates, rng);

  double weighted_sim = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(res.events[i], 500u) << "PoI " << i;
    EXPECT_NEAR(res.capture_fraction[i], analytic[i], 0.08)
        << "PoI " << i << " topology " << topo;
    weighted_sim += res.capture_fraction[i];
  }
  // Per-PoI errors are signed modeling residuals that partially cancel in
  // the aggregate the term actually optimizes.
  EXPECT_NEAR(weighted_sim / static_cast<double>(n),
              term.capture_fraction(chain), 0.05)
      << "topology " << topo;
}

INSTANTIATE_TEST_SUITE_P(Topologies, CaptureVsAnalyticTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(SimVsAnalytic, WallClockExposureDiffersFromUnitConvention) {
  // The paper's §VI-D caveat: the analytic Ē uses unit transitions, so the
  // wall-clock measurement deviates (transitions have different durations).
  SimSetup s(4);
  util::Rng rng(503);
  const auto p = test::random_positive_chain(9, rng, 0.02);

  SimulationConfig cfg;
  cfg.num_transitions = 100000;
  MarkovCoverageSimulator sim(s.model, cfg);
  const auto res = sim.run(p, rng);
  // Wall-clock exposures are longer: every transition takes >= pause = 1
  // time unit and usually more (travel).
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_GT(res.exposure_time[i], res.exposure_steps[i]);
}

}  // namespace
}  // namespace mocos::sim
