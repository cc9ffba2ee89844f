// layer_probe — times calls into each mocos layer from outside the program.
//
//   layer_probe [--jobs N] [--budget-ms B] CONFIG [SCHEDULE]
//   layer_probe [--jobs N] --multistart CONFIG
//
// The first form builds the problem CONFIG describes and times, at the
// support-uniform start and (when given) at the saved SCHEDULE:
//
//   sensing   cli::build_problem
//   markov    markov::try_analyze_chain, markov::try_stationary_distribution
//   cost      CompositeCost::value (at an analyzed chain),
//             cost::projected_cost_gradient
//   runtime   runtime::parallel_for over 16 equal tasks (analysis + cost at
//             the start) at 1 and at N jobs
//
// The second form times descent::multi_start_perturbed on CONFIG's problem
// (its `starts`, `iterations` and `seed` keys) at 1 and at N jobs.
//
// Only these façade-level entry points are called, so rewrites below them do
// not have to edit the benchmark. Each call is repeated until its time budget
// is spent (at least three times, unless one call outlasts the budget) and
// the median per-call time is reported. The
// result is one JSON object on stdout; the exit code is nonzero on any
// failure, including a non-finite cost.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cli/cli.hpp"
#include "src/core/serialization.hpp"
#include "src/cost/gradient.hpp"
#include "src/descent/multi_start.hpp"
#include "src/markov/fundamental.hpp"
#include "src/markov/stationary.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/config.hpp"
#include "src/util/rng.hpp"

namespace {

using mocos::linalg::Matrix;
using mocos::markov::TransitionMatrix;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Median seconds per call of `fn` over at least three samples. The first
// call sizes the batch so one sample lasts at least 1 ms, which keeps clock
// granularity out of microsecond calls. A call that alone outlasts the
// budget is its own single sample: on city_1024 one gradient takes seconds.
// A call slower than half the budget keeps its first call as a sample and
// stops at three.
template <typename Fn>
double per_call_seconds(Fn&& fn, double budget_s) {
  const Clock::time_point first_start = Clock::now();
  fn();
  const double first = seconds_since(first_start);
  if (first >= budget_s) return first;
  std::vector<double> samples;
  std::size_t batch = 1;
  if (first >= 0.5 * budget_s)
    samples.push_back(first);
  else
    batch = static_cast<std::size_t>(std::ceil(1e-3 / std::max(first, 1e-9)));
  const Clock::time_point start = Clock::now();
  while (samples.size() < 15) {
    const Clock::time_point s = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(seconds_since(s) / static_cast<double>(batch));
    if (seconds_since(start) >= budget_s && samples.size() >= 3) break;
  }
  return median(samples);
}

mocos::markov::ChainAnalysis analyze(const TransitionMatrix& p) {
  auto chain = mocos::markov::try_analyze_chain(p);
  if (!chain.ok())
    throw std::runtime_error("try_analyze_chain: " +
                             chain.status().to_string());
  return std::move(chain).value();
}

double finite_or_throw(double v, const char* what) {
  if (!std::isfinite(v))
    throw std::runtime_error(std::string(what) + ": non-finite cost");
  return v;
}

// The start the CLI descends from on these inputs: uniform over each row's
// support (all PoIs on dense problems).
TransitionMatrix support_uniform(const mocos::core::Problem& problem) {
  const std::size_t n = problem.num_pois();
  const auto& support = problem.support();
  if (support.empty()) return TransitionMatrix::uniform(n);
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (const std::size_t j : support[i])
      m(i, j) = 1.0 / static_cast<double>(support[i].size());
  return TransitionMatrix(std::move(m));
}

struct PointTimes {
  double analyze_s = 0.0;
  double stationary_s = 0.0;
  double value_s = 0.0;
  double gradient_s = 0.0;
};

PointTimes time_point(const mocos::cost::CompositeCost& cost,
                      const TransitionMatrix& p, double budget_s,
                      double& checksum) {
  PointTimes t;
  t.analyze_s = per_call_seconds([&] { checksum += analyze(p).pi[0]; },
                                 budget_s);
  t.stationary_s = per_call_seconds(
      [&] {
        auto pi = mocos::markov::try_stationary_distribution(p);
        if (!pi.ok())
          throw std::runtime_error("try_stationary_distribution: " +
                                   pi.status().to_string());
        checksum += (*pi)[0];
      },
      budget_s);
  const auto chain = analyze(p);
  t.value_s = per_call_seconds(
      [&] { checksum += finite_or_throw(cost.value(chain), "value"); },
      budget_s);
  t.gradient_s = per_call_seconds(
      [&] {
        checksum += mocos::cost::projected_cost_gradient(cost, chain)(0, 0);
      },
      budget_s);
  return t;
}

// Seconds for parallel_for over 16 equal tasks on `ctx`, each task `inner`
// analyses plus cost evaluations at p.
double pool_seconds(const mocos::runtime::ExecutionContext& ctx,
                    const mocos::cost::CompositeCost& cost,
                    const TransitionMatrix& p, std::size_t inner,
                    double budget_s) {
  std::vector<double> sink(16, 0.0);
  return per_call_seconds(
      [&] {
        mocos::runtime::parallel_for(ctx, sink.size(), [&](std::size_t i) {
          for (std::size_t k = 0; k < inner; ++k)
            sink[i] += cost.value(analyze(p));
        });
      },
      budget_s);
}

void print_json(const std::vector<std::pair<std::string, double>>& fields) {
  std::cout << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", fields[i].second);
    std::cout << (i ? ", " : "") << '"' << fields[i].first << "\": " << buf;
  }
  std::cout << "}\n";
}

int probe_layers(const std::string& config_path,
                 const std::optional<std::string>& schedule_path,
                 std::size_t jobs, double budget_s) {
  const auto config = mocos::util::Config::parse_file(config_path);
  double checksum = 0.0;
  const double build_s = per_call_seconds(
      [&] {
        checksum += static_cast<double>(
            mocos::cli::build_problem(config).num_pois());
      },
      budget_s);
  const mocos::core::Problem problem = mocos::cli::build_problem(config);
  const mocos::cost::CompositeCost cost = problem.make_cost();
  const TransitionMatrix start = support_uniform(problem);

  std::vector<PointTimes> points{time_point(cost, start, budget_s, checksum)};
  if (schedule_path) {
    const TransitionMatrix saved = mocos::core::load_schedule(*schedule_path);
    if (saved.size() != problem.num_pois())
      throw std::invalid_argument("schedule size does not match the config");
    points.push_back(time_point(cost, saved, budget_s, checksum));
  }
  const auto mean = [&](double PointTimes::*field) {
    double sum = 0.0;
    for (const PointTimes& t : points) sum += t.*field;
    return sum / static_cast<double>(points.size());
  };

  // Size each pool task to at least 2 ms so the pool's own overhead is
  // measured against real work, as it is in the multi-start fan-out.
  const double task_s = points.front().analyze_s + points.front().value_s;
  const auto inner = static_cast<std::size_t>(
      std::max(1.0, std::ceil(2e-3 / std::max(task_s, 1e-9))));
  const double pool1_s = pool_seconds(mocos::runtime::ExecutionContext(1),
                                      cost, start, inner, budget_s);
  const double pooln_s = pool_seconds(mocos::runtime::ExecutionContext(jobs),
                                      cost, start, inner, budget_s);
  if (!std::isfinite(checksum)) throw std::runtime_error("non-finite checksum");

  print_json({{"pois", static_cast<double>(problem.num_pois())},
              {"build_ms", build_s * 1e3},
              {"analyze_us", mean(&PointTimes::analyze_s) * 1e6},
              {"stationary_us", mean(&PointTimes::stationary_s) * 1e6},
              {"value_us", mean(&PointTimes::value_s) * 1e6},
              {"gradient_us", mean(&PointTimes::gradient_s) * 1e6},
              {"pool_1_ms", pool1_s * 1e3},
              {"pool_n_ms", pooln_s * 1e3},
              {"jobs", static_cast<double>(jobs)}});
  return 0;
}

int probe_multistart(const std::string& config_path, std::size_t jobs,
                     double budget_s) {
  const auto config = mocos::util::Config::parse_file(config_path);
  const mocos::core::Problem problem = mocos::cli::build_problem(config);
  const mocos::cost::CompositeCost cost = problem.make_cost();
  mocos::descent::MultiStartConfig ms;
  ms.starts = config.get_size("starts", 16);
  ms.perturbed.max_iterations = config.get_size("iterations", 200);
  ms.perturbed.keep_trace = false;
  const std::size_t seed = config.get_size("seed", 1);
  double best = 0.0;
  const auto run = [&](const mocos::runtime::ExecutionContext& ctx) {
    return per_call_seconds(
        [&] {
          mocos::util::Rng rng(seed);
          best = mocos::descent::multi_start_perturbed(cost, problem.num_pois(),
                                                       ms, rng, ctx)
                     .best.best_cost;
        },
        budget_s);
  };
  const double t1 = run(mocos::runtime::ExecutionContext(1));
  const double tn = run(mocos::runtime::ExecutionContext(jobs));
  finite_or_throw(best, "multi_start_perturbed");
  print_json({{"multistart_1_ms", t1 * 1e3},
              {"multistart_n_ms", tn * 1e3},
              {"best_cost", best},
              {"jobs", static_cast<double>(jobs)}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 4;
  double budget_s = 0.5;
  bool multistart = false;
  std::vector<std::string> positional;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + ": missing value");
        return argv[++i];
      };
      if (a == "--jobs") {
        jobs = std::stoul(value());
      } else if (a == "--budget-ms") {
        budget_s = std::stod(value()) / 1e3;
      } else if (a == "--multistart") {
        multistart = true;
      } else if (!a.empty() && a[0] == '-') {
        throw std::invalid_argument("unknown flag " + a);
      } else {
        positional.push_back(a);
      }
    }
    if (jobs == 0 || positional.empty() || positional.size() > 2 ||
        (multistart && positional.size() != 1))
      throw std::invalid_argument("bad arguments");
  } catch (const std::exception& e) {
    std::cerr << "layer_probe: " << e.what() << "\nusage: layer_probe "
              << "[--jobs N] [--budget-ms B] (CONFIG [SCHEDULE] | "
                 "--multistart CONFIG)\n";
    return 2;
  }
  try {
    if (multistart) return probe_multistart(positional[0], jobs, budget_s);
    const std::optional<std::string> schedule =
        positional.size() == 2 ? std::optional(positional[1]) : std::nullopt;
    return probe_layers(positional[0], schedule, jobs, budget_s);
  } catch (const std::exception& e) {
    std::cerr << "layer_probe: " << e.what() << '\n';
    return 1;
  }
}
