#include "src/cli/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/cli/batch.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase_timer.hpp"
#include "src/obs/trace.hpp"
#include "src/core/pareto.hpp"
#include "src/core/serialization.hpp"
#include "src/geometry/city_topology.hpp"
#include "src/geometry/polygon.hpp"
#include "src/markov/entropy.hpp"
#include "src/markov/spectral.hpp"
#include "src/sensing/routed_travel_model.hpp"
#include "src/sim/replication.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/status.hpp"
#include "src/util/table.hpp"

namespace mocos::cli {

namespace {

geometry::Topology parse_topology(const util::Config& config) {
  const std::string spec = config.require_string("topology");
  const double cell = config.get_double("cell", 1.0);

  auto parse_targets = [&](std::size_t n) {
    if (!config.has("targets")) return geometry::uniform_targets(n);
    const auto pieces = util::split(config.get_string("targets", ""), ',');
    if (pieces.size() != n)
      throw std::invalid_argument(
          "targets: expected " + std::to_string(n) + " values, got " +
          std::to_string(pieces.size()));
    std::vector<double> t;
    t.reserve(n);
    for (const auto& p : pieces) t.push_back(util::parse_double(p));
    return t;
  };

  if (spec.rfind("grid:", 0) == 0) {
    const std::string dims = spec.substr(5);
    const std::size_t x = dims.find('x');
    if (x == std::string::npos)
      throw std::invalid_argument("topology: grid spec must be grid:RxC");
    const auto rows = static_cast<std::size_t>(
        util::parse_double(dims.substr(0, x)));
    const auto cols = static_cast<std::size_t>(
        util::parse_double(dims.substr(x + 1)));
    return geometry::make_grid("grid:" + dims, rows, cols,
                               parse_targets(rows * cols), cell);
  }
  if (spec.rfind("city:", 0) == 0) {
    const auto parts = util::split(spec.substr(5), ':');
    if (parts.empty() || parts.size() > 2)
      throw std::invalid_argument("topology: city spec must be city:N[:seed]");
    geometry::CityConfig city;
    city.count = static_cast<std::size_t>(util::parse_double(parts[0]));
    city.spacing = cell;
    if (parts.size() == 2)
      city.seed = static_cast<std::uint64_t>(util::parse_double(parts[1]));
    geometry::Topology t = geometry::city_topology(city);
    // The city map carries its own seeded random targets; an explicit
    // `targets` key still wins.
    if (!config.has("targets")) return t;
    return geometry::Topology(t.name(), t.positions(),
                              parse_targets(t.size()));
  }
  if (spec.rfind("points:", 0) == 0) {
    std::vector<geometry::Vec2> pts;
    for (const auto& pair : util::split(spec.substr(7), ';')) {
      const auto xy = util::split(pair, ',');
      if (xy.size() != 2)
        throw std::invalid_argument("topology: point must be x,y");
      pts.push_back({util::parse_double(xy[0]), util::parse_double(xy[1])});
    }
    const std::size_t n = pts.size();
    return geometry::Topology("points", std::move(pts), parse_targets(n));
  }
  throw std::invalid_argument(
      "topology: must start with grid:, points: or city:");
}

std::vector<geometry::Polygon> parse_obstacles(const util::Config& config) {
  std::vector<geometry::Polygon> out;
  for (const std::string& spec : config.get_all("obstacle")) {
    if (spec.rfind("rect:", 0) == 0) {
      const auto nums = util::split(spec.substr(5), ',');
      if (nums.size() != 4)
        throw std::invalid_argument(
            "obstacle: rect needs minx,miny,maxx,maxy");
      out.push_back(geometry::Polygon::rectangle(
          {util::parse_double(nums[0]), util::parse_double(nums[1])},
          {util::parse_double(nums[2]), util::parse_double(nums[3])}));
    } else if (spec.rfind("poly:", 0) == 0) {
      std::vector<geometry::Vec2> verts;
      for (const auto& pair : util::split(spec.substr(5), ';')) {
        const auto xy = util::split(pair, ',');
        if (xy.size() != 2)
          throw std::invalid_argument("obstacle: poly vertex must be x,y");
        verts.push_back(
            {util::parse_double(xy[0]), util::parse_double(xy[1])});
      }
      out.push_back(geometry::Polygon(std::move(verts)));
    } else {
      throw std::invalid_argument("obstacle: must start with rect: or poly:");
    }
  }
  return out;
}

std::vector<double> parse_double_list(const util::Config& config,
                                      const std::string& key) {
  std::vector<double> out;
  if (!config.has(key)) return out;
  for (const auto& piece : util::split(config.get_string(key, ""), ','))
    out.push_back(util::parse_double(piece));
  return out;
}

core::Weights parse_weights(const util::Config& config) {
  core::Weights w;
  w.alpha = config.get_double("alpha", 1.0);
  w.beta = config.get_double("beta", 1.0);
  // Per-PoI overrides (comma lists matching the PoI count).
  w.alpha_per_poi = parse_double_list(config, "alpha_i");
  w.beta_per_poi = parse_double_list(config, "beta_i");
  w.epsilon = config.get_double("epsilon", 1e-4);
  w.energy_gamma = config.get_double("energy_gamma", 0.0);
  w.energy_target = config.get_double("energy_target", 0.0);
  w.entropy_weight = config.get_double("entropy_weight", 0.0);
  w.event_rates = parse_double_list(config, "event_rates");
  w.information_gamma = config.get_double("information_gamma", 1.0);
  w.capture_weight = config.get_non_negative_double("capture_weight", 0.0);
  w.capture_duration = config.get_positive_double("capture_duration", 1.0);
  w.lambda_skew = config.get_double("lambda_skew", 0.0);
  if (!std::isfinite(w.lambda_skew))
    throw std::invalid_argument("lambda_skew: must be finite");
  w.minimax_weight = config.get_non_negative_double("minimax_weight", 0.0);
  w.smoothmax_beta = config.get_positive_double("smoothmax_beta", 8.0);
  return w;
}

core::Algorithm parse_algorithm(const util::Config& config) {
  const std::string a = config.get_string("algorithm", "perturbed");
  if (a == "basic") return core::Algorithm::kBasic;
  if (a == "adaptive") return core::Algorithm::kAdaptive;
  if (a == "perturbed") return core::Algorithm::kPerturbed;
  throw std::invalid_argument(
      "algorithm: must be basic, adaptive or perturbed");
}

/// Flags recognized ahead of the positional config argument.
struct CliArgs {
  std::string config_path;  // single mode (exclusive with batch_spec)
  std::string batch_spec;   // batch mode: directory or list file
  std::string summary_path; // optional file for the batch JSON summary
  std::string metrics_path; // optional metrics JSON snapshot (--metrics)
  std::string trace_path;   // optional NDJSON trace (--trace / MOCOS_TRACE)
  std::string profile_path; // optional phase-profiler JSON (--profile)
  std::size_t jobs = 1;     // 0 = hardware concurrency
};

CliArgs parse_args(const std::vector<std::string>& args) {
  CliArgs parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size())
        throw std::invalid_argument(std::string(flag) + ": missing value");
      return args[++i];
    };
    if (a == "--jobs") {
      const std::string& v = value("--jobs");
      std::size_t pos = 0;
      unsigned long n = 0;
      try {
        n = std::stoul(v, &pos);
      } catch (const std::exception&) {
        throw std::invalid_argument("--jobs: not a number: " + v);
      }
      if (pos != v.size())
        throw std::invalid_argument("--jobs: not a number: " + v);
      parsed.jobs = static_cast<std::size_t>(n);
    } else if (a == "--batch") {
      parsed.batch_spec = value("--batch");
    } else if (a == "--summary") {
      parsed.summary_path = value("--summary");
    } else if (a == "--metrics") {
      parsed.metrics_path = value("--metrics");
    } else if (a == "--trace") {
      parsed.trace_path = value("--trace");
    } else if (a == "--profile") {
      parsed.profile_path = value("--profile");
    } else if (!a.empty() && a[0] == '-') {
      throw std::invalid_argument("unknown flag: " + a);
    } else if (parsed.config_path.empty()) {
      parsed.config_path = a;
    } else {
      throw std::invalid_argument("unexpected extra argument: " + a);
    }
  }
  if (parsed.config_path.empty() == parsed.batch_spec.empty())
    throw std::invalid_argument(
        "expected exactly one of <config-file> or --batch <dir-or-list>");
  return parsed;
}

}  // namespace

core::Problem build_problem(const util::Config& config) {
  geometry::Topology topology = parse_topology(config);
  const core::Weights weights = parse_weights(config);
  const double speed = config.get_double("speed", 1.0);
  const double pause = config.get_double("pause", 1.0);
  const double radius = config.get_double("radius", 0.25);
  const double support_radius = config.get_double("support_radius", 0.0);

  auto obstacles = parse_obstacles(config);
  if (obstacles.empty()) {
    core::Physics physics;
    physics.speed = speed;
    physics.pause = pause;
    physics.sensing_radius = radius;
    physics.support_radius = support_radius;
    return core::Problem(std::move(topology), physics, weights);
  }
  if (support_radius > 0.0)
    throw std::invalid_argument(
        "support_radius: not supported with obstacles (support restriction "
        "is only wired through the straight-line motion model)");
  const double clearance = config.get_double("clearance", 1e-3);
  return core::Problem(
      std::make_unique<sensing::RoutedTravelModel>(
          std::move(topology), std::move(obstacles), speed, pause, radius,
          clearance),
      weights);
}

core::OptimizationOutcome run_optimization(
    const util::Config& config, const core::Problem& problem,
    const runtime::ExecutionContext& ctx) {
  return run_optimization(config, problem, ctx, RunHooks{});
}

core::OptimizationOutcome run_optimization(
    const util::Config& config, const core::Problem& problem,
    const runtime::ExecutionContext& ctx, const RunHooks& hooks) {
  // Audit mode: evaluate a previously saved schedule instead of optimizing
  // a new one.
  const std::string load_path = config.get_string("load_schedule", "");
  if (!load_path.empty()) {
    markov::TransitionMatrix p = core::load_schedule(load_path);
    if (p.size() != problem.num_pois())
      throw std::invalid_argument(
          "load_schedule: schedule size does not match the topology");
    cost::Metrics metrics = problem.metrics_of(p);
    const double report = metrics.cost(problem.weights().alpha,
                                       problem.weights().beta);
    const double penalized = problem.make_cost().value(p);
    return core::OptimizationOutcome{core::Algorithm::kBasic,
                                     std::move(p),
                                     penalized,
                                     std::move(metrics),
                                     report,
                                     0,
                                     descent::Trace{},
                                     descent::StopReason::kMaxIterations,
                                     descent::RecoveryLog{},
                                     markov::ChainSolveStats{}};
  }
  core::OptimizerOptions opts;
  opts.algorithm = parse_algorithm(config);
  opts.max_iterations = config.get_size("iterations", 2000);
  opts.seed = config.get_size(
      "seed", hooks.default_seed
                  ? static_cast<std::size_t>(*hooks.default_seed)
                  : std::size_t{1});
  opts.random_start = config.get_bool("random_start", false);
  opts.constant_step = config.get_double("step", 1e-6);
  opts.starts = config.get_size("starts", 1);
  if (opts.starts == 0) throw std::invalid_argument("starts: must be >= 1");
  if (opts.starts > 1) opts.random_start = true;  // V2 multi-start protocol
  opts.keep_trace = false;
  opts.should_stop = hooks.should_stop;
  // Stage-wise smooth-max β annealing: with smoothmax_anneal_stages = S >= 2
  // the run splits into S warm-started legs (iterations / S each) whose
  // temperature climbs geometrically from smoothmax_beta to
  // smoothmax_beta_final — soft, well-conditioned maxima early, near-hard
  // worst case late.
  const std::size_t anneal_stages =
      config.get_size("smoothmax_anneal_stages", 1);
  const double beta_final =
      config.get_non_negative_double("smoothmax_beta_final", 0.0);
  if (anneal_stages == 0)
    throw std::invalid_argument("smoothmax_anneal_stages: must be >= 1");
  if (anneal_stages > 1) {
    if (problem.weights().minimax_weight <= 0.0)
      throw std::invalid_argument(
          "smoothmax_anneal_stages: requires minimax_weight > 0");
    if (!(beta_final >= problem.weights().smoothmax_beta))
      throw std::invalid_argument(
          "smoothmax_anneal_stages: requires smoothmax_beta_final >= "
          "smoothmax_beta");
    if (opts.starts > 1)
      throw std::invalid_argument(
          "smoothmax_anneal_stages: not supported with starts > 1");
    opts.max_iterations =
        std::max<std::size_t>(1, opts.max_iterations / anneal_stages);
  }
  const core::CoverageOptimizer optimizer(problem, opts);
  // A warm start only applies to single-start runs of the right size on the
  // problem's support; a mismatch (topology or support changed under a reused
  // cache_key) silently falls back to the config's own start policy rather
  // than failing the request.
  core::OptimizationOutcome outcome = [&] {
    if (hooks.warm_start != nullptr && opts.starts == 1 &&
        hooks.warm_start->size() == problem.num_pois() &&
        problem.on_support(*hooks.warm_start)) {
      if (hooks.warm_start_applied != nullptr)
        *hooks.warm_start_applied = true;
      return optimizer.run(*hooks.warm_start);
    }
    return optimizer.run(ctx);
  }();
  for (std::size_t s = 1; s < anneal_stages; ++s) {
    const double beta0 = problem.weights().smoothmax_beta;
    const double t =
        static_cast<double>(s) / static_cast<double>(anneal_stages - 1);
    opts.smoothmax_beta_override = beta0 * std::pow(beta_final / beta0, t);
    // Decorrelate each stage's perturbation stream from the previous one
    // while keeping the whole schedule a pure function of the config seed.
    opts.seed += 1;
    const core::CoverageOptimizer stage(problem, opts);
    outcome = stage.run(outcome.p);
  }
  return outcome;
}

namespace {

int run_batch_mode(const CliArgs& cli, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> configs =
      collect_batch_configs(cli.batch_spec);
  const runtime::ExecutionContext ctx(cli.jobs);
  const std::vector<ScenarioOutcome> outcomes = run_batch(configs, ctx);

  // Diagnostics in config order (deterministic for any job count).
  for (const ScenarioOutcome& o : outcomes) {
    if (!o.ok())
      err << "mocos: " << o.path << ": exit " << o.exit_code << ": "
          << o.error << '\n';
  }
  std::ostringstream summary;
  write_batch_summary(outcomes, summary);
  out << summary.str();
  if (!cli.summary_path.empty()) {
    std::ofstream file(cli.summary_path);
    if (!file)
      throw std::invalid_argument("--summary: cannot write " +
                                  cli.summary_path);
    file << summary.str();
  }
  for (const ScenarioOutcome& o : outcomes)
    if (!o.ok()) return kExitBatchPartialFailure;
  return kExitSuccess;
}

/// The CLI proper, after flag parsing and observability setup.
int run_cli_impl(const CliArgs& cli, std::ostream& out, std::ostream& err) {
  try {
    if (!cli.batch_spec.empty()) return run_batch_mode(cli, out, err);

    const util::Config config = util::Config::parse_file(cli.config_path);
    const core::Problem problem = build_problem(config);
    const runtime::ExecutionContext ctx(cli.jobs);

    // Frontier mode: sweep the exposure weight and print the achievable
    // (DeltaC, E-bar) trade-off curve instead of one schedule.
    if (config.get_string("mode", "optimize") == "frontier") {
      core::FrontierOptions fopts;
      fopts.grid_points = config.get_size("frontier_points", 7);
      fopts.beta_max = config.get_double("frontier_beta_max", 1.0);
      fopts.beta_min = config.get_double("frontier_beta_min", 1e-6);
      fopts.per_point.max_iterations = config.get_size("iterations", 800);
      fopts.per_point.seed = config.get_size("seed", 1);
      fopts.per_point.stall_limit = 300;
      fopts.per_point.keep_trace = false;
      const auto points = core::tradeoff_sweep(problem, fopts);
      const auto front = core::pareto_front(points);
      out << "trade-off frontier for " << problem.topology().name() << " ("
          << front.size() << " of " << points.size()
          << " sweep points efficient):\n";
      util::Table t({"beta", "DeltaC", "E-bar"});
      for (const auto& pt : front)
        t.add_row({util::fmt(pt.beta, 7), util::fmt(pt.delta_c, 6),
                   util::fmt(pt.e_bar, 3)});
      t.print(out);
      return 0;
    }

    const std::string load_path = config.get_string("load_schedule", "");
    if (!load_path.empty()) {
      out << "mocos: evaluating saved schedule " << load_path << " on "
          << problem.topology().name() << '\n' << '\n';
    } else {
      out << "mocos: optimizing " << problem.topology().name() << " ("
          << problem.num_pois() << " PoIs, algorithm "
          << core::to_string(parse_algorithm(config)) << ", "
          << config.get_size("iterations", 2000) << " iterations";
      const std::size_t starts = config.get_size("starts", 1);
      if (starts > 1) out << ", " << starts << " starts";
      out << ")\n\n";
    }
    core::OptimizationOutcome outcome = run_optimization(config, problem, ctx);
    if (outcome.stop_reason == descent::StopReason::kNumericalFailure) {
      err << "mocos: numerical failure: descent recovery ladder exhausted ("
          << outcome.recovery.summary() << ")\n";
      out << outcome.summary() << '\n';
      return kExitNumericalFailure;
    }
    out << outcome.summary() << '\n';
    // City-scale matrices would dump megabytes of text; keep the full print
    // for the paper-sized maps and point large runs at save_schedule.
    if (problem.num_pois() <= 64) {
      out << "transition matrix:\n"
          << outcome.p.to_dense().to_string(4) << "\n";
    } else {
      out << "transition matrix: " << problem.num_pois() << "x"
          << problem.num_pois()
          << " (print suppressed; use save_schedule to export)\n";
    }

    const std::string save_path = config.get_string("save_schedule", "");
    if (!save_path.empty()) {
      core::save_schedule(save_path, outcome.p);
      out << "\nschedule saved to " << save_path << '\n';
    }

    if (config.get_bool("report_spectral", false)) {
      const auto chain = markov::try_analyze_chain(outcome.p).value();
      out << "\nspectral diagnostics:\n"
          << "  SLEM: " << util::fmt(markov::slem(outcome.p), 4) << '\n'
          << "  relaxation time: "
          << util::fmt(markov::relaxation_time(outcome.p), 2) << '\n'
          << "  mixing time (TV<=0.05): "
          << markov::mixing_time(outcome.p, 0.05) << " transitions\n"
          << "  Kemeny constant: "
          << util::fmt(markov::kemeny_constant(chain), 2) << '\n'
          << "  entropy rate: "
          << util::fmt(markov::entropy_rate(outcome.p), 3) << " / "
          << util::fmt(markov::max_entropy_rate(problem.num_pois()), 3)
          << " nats\n";
    }

    const std::size_t sim_steps = config.get_size("simulate", 0);
    const std::size_t replications = config.get_size("replications", 1);
    const std::uint64_t seed = config.get_size("seed", 1);
    if (sim_steps > 0 && replications > 1) {
      // Replicated validation: R independent simulations (fanned out under
      // --jobs) with the paper's mean / 25th / 75th percentile reporting.
      sim::SimulationConfig sim_cfg;
      sim_cfg.num_transitions = sim_steps;
      util::Rng rng(seed + 1);
      const sim::ReplicationSummary summary = sim::replicate(
          problem.model(), outcome.p, problem.targets(),
          problem.weights().alpha, problem.weights().beta, sim_cfg,
          replications, rng, ctx);
      out << "\nreplicated validation (" << replications << " x " << sim_steps
          << " transitions):\n";
      util::Table t({"metric", "mean", "p25", "p75", "min", "max"});
      auto row = [&](const char* name, const sim::ReplicatedMetric& m,
                     int digits) {
        t.add_row({name, util::fmt(m.mean, digits), util::fmt(m.p25, digits),
                   util::fmt(m.p75, digits), util::fmt(m.min, digits),
                   util::fmt(m.max, digits)});
      };
      row("delta_C", summary.delta_c, 6);
      row("E_bar", summary.e_bar, 3);
      row("cost (Eq.14)", summary.cost, 6);
      t.print(out);
    } else if (sim_steps > 0) {
      sim::SimulationConfig sim_cfg;
      sim_cfg.num_transitions = sim_steps;
      sim::MarkovCoverageSimulator simulator(problem.model(), sim_cfg);
      util::Rng rng(seed + 1);
      const auto res = simulator.run(outcome.p, rng);
      out << "\nvalidation simulation (" << sim_steps << " transitions):\n";
      util::Table t({"PoI", "target", "analytic share", "simulated share",
                     "mean exposure", "p95 exposure", "max exposure"});
      for (std::size_t i = 0; i < problem.num_pois(); ++i)
        t.add_row({std::to_string(i + 1),
                   util::fmt(problem.targets()[i], 3),
                   util::fmt(outcome.metrics.c_share[i], 3),
                   util::fmt(res.coverage_share[i], 3),
                   util::fmt(res.exposure_steps[i], 2),
                   util::fmt(res.exposure_steps_p95[i], 2),
                   util::fmt(res.exposure_steps_max[i], 2)});
      t.print(out);
    }
    return kExitSuccess;
  } catch (const util::StatusError& e) {
    // Structured failures map to distinct exit codes: configuration problems
    // are the caller's to fix (2), numerical breakdowns describe the
    // instance (3).
    err << "mocos: error: " << e.what() << '\n';
    if (util::is_numerical_failure(e.status().code()))
      return kExitNumericalFailure;
    if (e.status().code() == util::StatusCode::kInvalidConfig)
      return kExitBadConfig;
    return kExitRuntimeError;
  } catch (const std::invalid_argument& e) {
    err << "mocos: config error: " << e.what() << '\n';
    return kExitBadConfig;
  } catch (const std::out_of_range& e) {
    err << "mocos: config error: " << e.what() << '\n';
    return kExitBadConfig;
  } catch (const std::exception& e) {
    err << "mocos: error: " << e.what() << '\n';
    return kExitRuntimeError;
  }
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  CliArgs cli;
  try {
    cli = parse_args(args);
  } catch (const std::invalid_argument& e) {
    err << "mocos: " << e.what() << '\n'
        << "usage: mocos_cli [--jobs N] [--summary FILE] [--metrics FILE]\n"
           "                 [--trace FILE] [--profile FILE]\n"
           "                 (<config-file> | --batch <dir-or-list>)\n"
           "see src/cli/cli.hpp for the config format\n";
    return kExitBadConfig;
  }

  // --trace FILE wins over the MOCOS_TRACE environment variable. Traces and
  // metrics are side files only: stdout/stderr and the --summary document are
  // byte-identical with and without them.
  std::string trace_path = cli.trace_path;
  if (trace_path.empty()) {
    if (const char* env = std::getenv("MOCOS_TRACE")) {
      if (*env != '\0') trace_path = env;
    }
  }
  std::ofstream trace_file;
  std::unique_ptr<obs::TraceSink> sink;
  std::optional<obs::ScopedTraceInstall> trace_install;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      err << "mocos: --trace: cannot write " << trace_path << '\n';
      return kExitBadConfig;
    }
    sink = std::make_unique<obs::TraceSink>(trace_file);
    trace_install.emplace(sink.get());
  }
  obs::MetricsRegistry registry;
  std::optional<obs::ScopedMetrics> metrics_install;
  if (!cli.metrics_path.empty()) metrics_install.emplace(&registry);

  // Like traces, the profile is a side file: phase counts are deterministic,
  // the nanosecond fields are wall-clock (DESIGN.md §15).
  obs::PhaseTimer profiler;
  std::optional<obs::ScopedProfileInstall> profile_install;
  if (!cli.profile_path.empty()) profile_install.emplace(&profiler);

  int code = kExitRuntimeError;
  {
    obs::ScopedSpan span("cli.run", "cli");
    code = run_cli_impl(cli, out, err);
  }
  if (sink != nullptr) sink->flush();

  if (!cli.profile_path.empty()) {
    std::ofstream profile_file(cli.profile_path);
    if (!profile_file) {
      err << "mocos: --profile: cannot write " << cli.profile_path << '\n';
      return code == kExitSuccess ? kExitBadConfig : code;
    }
    profiler.write_json(profile_file);
  }

  if (!cli.metrics_path.empty()) {
    std::ofstream metrics_file(cli.metrics_path);
    if (!metrics_file) {
      err << "mocos: --metrics: cannot write " << cli.metrics_path << '\n';
      return code == kExitSuccess ? kExitBadConfig : code;
    }
    registry.snapshot().write_json(metrics_file);
  }
  return code;
}

}  // namespace mocos::cli
