// Sparse chain analysis vs. the dense pipeline at city scale. For each map
// size M the bench builds a jittered-grid city chain (support radius
// 2·spacing, ~13 neighbours per PoI), runs the full chain analysis
// (markov::try_analyze_chain: π, Z and R) pinned to the sparse ladder and —
// up to the dense cap — pinned to the dense LU, and reports the full-solve
// speedup. It also times what one line-search probe of a sparse descent
// does under `sparse.resolvent`: a π-only analysis
// (markov::try_resolvent_analysis at kStationary) on the sparse ladder,
// the median of several runs, which is the time the city_1024 end-to-end
// workload spends per probe. Beside the RCM bandwidth b it reports the
// banded LU's envelope, the cells of U the elimination and the solves
// visit (about n·b for the full band). Writes BENCH_sparse_scaling.json
// (to MOCOS_BENCH_CSV_DIR when set, else the working directory).
//
// Correctness is part of what is measured: wherever the dense reference runs,
// π must agree to 1e-8 (absolute) and R to 1e-8 (relative) or the bench fails
// loudly — the acceptance gate of the sparse subsystem, measured on the same
// chains the timing claims are made on.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench/common.hpp"
#include "src/descent/initializers.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/resolvent.hpp"
#include "src/markov/solve_policy.hpp"
#include "src/obs/metrics.hpp"
#include "src/sparse/banded_lu.hpp"
#include "src/sparse/resolvent_ladder.hpp"

namespace mocos::bench {
namespace {

struct SizePoint {
  std::size_t m = 0;
  std::size_t nnz = 0;
  double density = 0.0;
  std::size_t bandwidth = 0;
  std::size_t envelope = 0;  // BandedResolventLu::envelope_size()
  bool used_banded = false;
  bool used_bicgstab = false;
  double sparse_seconds = 0.0;
  double stationary_seconds = 0.0;  // median π-only sparse analysis
  double dense_seconds = 0.0;  // 0 when the dense reference was skipped
  double speedup = 0.0;        // dense/sparse, 0 when dense skipped
  double pi_gap = 0.0;         // max |π_sparse − π_dense|, 0 when skipped
  double r_rel_gap = 0.0;      // max relative R gap, 0 when skipped
};

markov::TransitionMatrix city_chain(std::size_t m) {
  geometry::CityConfig cfg;
  cfg.count = m;
  cfg.seed = 7;
  const geometry::Topology topo = geometry::city_topology(cfg);
  return descent::support_uniform_start(linalg::SparsityPattern::from_rows(
      m, geometry::radius_neighbors(topo, 2.0 * cfg.spacing)));
}

SizePoint run_size(std::size_t m, bool run_dense) {
  SizePoint pt;
  pt.m = m;
  const markov::TransitionMatrix p = city_chain(m);
  const linalg::SparseMatrix& sp = p.csr();
  pt.nnz = sp.nnz();
  pt.density = sp.density();

  // Sparse full analysis (π, Z, R through the resolvent ladder). A ladder
  // that fell back to the dense LU would make the sparse timing meaningless.
  obs::MetricsRegistry registry;
  const auto t0 = std::chrono::steady_clock::now();
  const auto sparse_result = [&] {
    obs::ScopedMetrics install(&registry);
    return markov::try_analyze_chain(p, markov::SolvePolicy::kSparse);
  }();
  const auto t1 = std::chrono::steady_clock::now();
  if (!sparse_result.ok() ||
      registry.counter("markov.sparse.fallbacks").value() != 0) {
    std::cerr << "sparse_scaling: the sparse analysis failed or fell back at "
              << "M=" << m << "\n";
    std::exit(1);
  }
  pt.sparse_seconds = std::chrono::duration<double>(t1 - t0).count();

  // A probe's work: the π-only analysis, each run on a fresh factorization
  // as a probe at a new step is.
  std::vector<double> probe_seconds;
  for (std::size_t r = 0; r < scaled(15, 5); ++r) {
    const auto s0 = std::chrono::steady_clock::now();
    const auto probe = [&] {
      obs::ScopedMetrics install(&registry);
      return markov::try_resolvent_analysis(p, markov::SolvePolicy::kSparse,
                                            markov::AnalysisLevel::kStationary);
    }();
    const auto s1 = std::chrono::steady_clock::now();
    if (!probe.ok() || !probe->sparse ||
        registry.counter("markov.sparse.fallbacks").value() != 0) {
      std::cerr << "sparse_scaling: the pi-only sparse analysis failed or "
                << "fell back at M=" << m << "\n";
      std::exit(1);
    }
    probe_seconds.push_back(std::chrono::duration<double>(s1 - s0).count());
  }
  std::sort(probe_seconds.begin(), probe_seconds.end());
  pt.stationary_seconds = probe_seconds[probe_seconds.size() / 2];

  // The rung that served it and its envelope, outside the timed regions.
  // c is uniform, so it reads the same in band order.
  const linalg::Vector c(m, 1.0 / static_cast<double>(m));
  pt.used_banded =
      sparse::SparseResolvent::try_factor(sp, c).value().banded();
  pt.used_bicgstab = !pt.used_banded;
  const linalg::BandOrdering& order = sp.pattern().band_ordering();
  pt.bandwidth = order.bandwidth;
  pt.envelope = sparse::BandedResolventLu::try_factor(sp, c, order.bandwidth,
                                                      order.position)
                    .value()
                    .envelope_size();

  if (!run_dense) return pt;

  // Dense reference, pinned to the dense route so try_analyze_chain really
  // runs the O(M³) factorization.
  const auto t2 = std::chrono::steady_clock::now();
  const auto dense_result =
      markov::try_analyze_chain(p, markov::SolvePolicy::kDense);
  const auto t3 = std::chrono::steady_clock::now();
  if (!dense_result.ok()) {
    std::cerr << "sparse_scaling: dense reference failed at M=" << m << "\n";
    std::exit(1);
  }
  pt.dense_seconds = std::chrono::duration<double>(t3 - t2).count();
  pt.speedup =
      pt.sparse_seconds > 0.0 ? pt.dense_seconds / pt.sparse_seconds : 0.0;

  for (std::size_t i = 0; i < m; ++i)
    pt.pi_gap = std::max(
        pt.pi_gap, std::abs(sparse_result->pi[i] - dense_result->pi[i]));
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      const double ref = dense_result->r(i, j);
      const double gap = std::abs(sparse_result->r(i, j) - ref);
      pt.r_rel_gap = std::max(pt.r_rel_gap, gap / (1.0 + std::abs(ref)));
    }
  if (pt.pi_gap > 1e-8 || pt.r_rel_gap > 1e-8) {
    std::cerr << "sparse_scaling: AGREEMENT VIOLATION at M=" << m
              << ": pi_gap=" << pt.pi_gap << " r_rel_gap=" << pt.r_rel_gap
              << "\n";
    std::exit(1);
  }
  return pt;
}

void write_json(const std::vector<SizePoint>& points) {
  const char* dir = std::getenv("MOCOS_BENCH_CSV_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) +
      "BENCH_sparse_scaling.json";
  std::ofstream out(path);
  auto num = [&](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", x);
    out << buf;
  };
  out << "{\n  \"scale\": \"" << (quick_mode() ? "quick" : "full")
      << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"compiler\": \"" << __VERSION__
      << "\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SizePoint& pt = points[i];
    out << "    {\"m\": " << pt.m << ", \"nnz\": " << pt.nnz
        << ", \"density\": ";
    num(pt.density);
    out << ", \"bandwidth\": " << pt.bandwidth << ", \"envelope\": "
        << pt.envelope << ", \"used_banded\": "
        << (pt.used_banded ? "true" : "false") << ", \"used_bicgstab\": "
        << (pt.used_bicgstab ? "true" : "false") << ", \"sparse_seconds\": ";
    num(pt.sparse_seconds);
    out << ", \"stationary_seconds\": ";
    num(pt.stationary_seconds);
    out << ", \"dense_seconds\": ";
    num(pt.dense_seconds);
    out << ", \"speedup\": ";
    num(pt.speedup);
    out << ", \"pi_gap\": ";
    num(pt.pi_gap);
    out << ", \"r_rel_gap\": ";
    num(pt.r_rel_gap);
    out << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

int run() {
  banner("sparse chain analysis: resolvent ladder vs dense pipeline");
  const std::vector<std::size_t> sizes =
      quick_mode() ? std::vector<std::size_t>{128, 256}
                   : std::vector<std::size_t>{256, 512, 1024, 2048};
  // The dense O(M³) reference stops where it stops being affordable; beyond
  // the cap only the sparse timing is reported.
  const std::size_t dense_cap = scaled(1024, 256);

  std::vector<SizePoint> points;
  util::Table t({"M", "nnz", "band", "envelope", "pi-only ms", "sparse s",
                 "dense s", "speedup", "pi gap", "R rel gap"});
  for (std::size_t m : sizes) {
    points.push_back(run_size(m, m <= dense_cap));
    const SizePoint& pt = points.back();
    t.add_row({std::to_string(pt.m), std::to_string(pt.nnz),
               std::to_string(pt.bandwidth), std::to_string(pt.envelope),
               util::fmt(1e3 * pt.stationary_seconds, 3),
               util::fmt(pt.sparse_seconds, 4),
               pt.dense_seconds > 0.0 ? util::fmt(pt.dense_seconds, 4) : "-",
               pt.speedup > 0.0 ? util::fmt(pt.speedup, 2) : "-",
               pt.dense_seconds > 0.0 ? util::fmt(pt.pi_gap, 12) : "-",
               pt.dense_seconds > 0.0 ? util::fmt(pt.r_rel_gap, 12) : "-"});
  }
  t.print(std::cout);
  write_json(points);
  return 0;
}

}  // namespace
}  // namespace mocos::bench

int main() { return mocos::bench::run(); }
