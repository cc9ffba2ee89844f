#include "tools/corpus/corpus_generator.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mocos::corpus {

namespace {

/// Shortest round-trip-exact decimal (matches the batch summary's number
/// contract); locale-independent.
std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Fixed 6-decimal print for generated coordinates: snapping to a coarse
/// grid keeps the config text identical even if libm's cos/sin differ by an
/// ulp between platforms.
std::string fmt6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// One point of the family x size grid the corpus sweeps. Grid dimensions
/// are only meaningful for the grid family.
struct FamilySpec {
  const char* family;
  std::size_t size;
  std::size_t rows;
  std::size_t cols;
};

constexpr FamilySpec kFamilies[] = {
    {"grid", 6, 2, 3},  {"grid", 9, 3, 3},  {"grid", 12, 3, 4},
    {"grid", 16, 4, 4}, {"ring", 5, 0, 0},  {"ring", 8, 0, 0},
    {"ring", 12, 0, 0}, {"ring", 16, 0, 0}, {"line", 4, 0, 0},
    {"line", 6, 0, 0},  {"line", 9, 0, 0},  {"line", 12, 0, 0},
    {"city", 16, 0, 0}, {"city", 24, 0, 0}, {"city", 32, 0, 0},
    {"city", 48, 0, 0},
};

struct SkewSpec {
  const char* name;     // targets profile: uniform | power | spike
  double lambda_skew;   // paired event-rate skew for the capture mixes
};

constexpr SkewSpec kSkews[] = {
    {"uniform", 0.0},
    {"power", 1.5},
    {"spike", 0.75},
};

constexpr const char* kMixes[] = {
    "baseline", "capture", "minimax", "capture_minimax", "full",
};

bool mix_has_capture(const std::string& mix) {
  return mix == "capture" || mix == "capture_minimax" || mix == "full";
}

std::string topology_line(const FamilySpec& f, std::uint64_t city_seed) {
  std::ostringstream out;
  if (f.family == std::string("grid")) {
    out << "topology = grid:" << f.rows << "x" << f.cols;
  } else if (f.family == std::string("ring")) {
    const double r = static_cast<double>(f.size) / 4.0;
    out << "topology = points:";
    for (std::size_t i = 0; i < f.size; ++i) {
      const double a = 2.0 * 3.14159265358979323846 *
                       static_cast<double>(i) / static_cast<double>(f.size);
      if (i > 0) out << ";";
      out << fmt6(r * std::cos(a)) << "," << fmt6(r * std::sin(a));
    }
  } else if (f.family == std::string("line")) {
    out << "topology = points:";
    for (std::size_t i = 0; i < f.size; ++i) {
      if (i > 0) out << ";";
      out << fmt6(static_cast<double>(i)) << "," << fmt6(0.0);
    }
  } else {  // city
    out << "topology = city:" << f.size << ":" << (city_seed % 100000);
  }
  return out.str();
}

/// The explicit targets line for the skewed profiles (uniform omits the key
/// and takes each topology's default). The last entry is written as one
/// minus the running sum so the parsed values satisfy the topology's
/// sum-to-1 gate to the last ulp.
std::string targets_line(const std::string& skew, std::size_t n) {
  std::ostringstream out;
  out << "targets = ";
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double t = 0.0;
    if (skew == "power") {
      double norm = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        norm += 1.0 / static_cast<double>(j + 1);
      t = 1.0 / (static_cast<double>(i + 1) * norm);
    } else {  // spike
      t = i == 0 ? 0.4 : 0.6 / static_cast<double>(n - 1);
    }
    acc += t;
    out << fmt17(t) << ",";
  }
  out << fmt17(1.0 - acc);
  return out.str();
}

std::size_t iterations_for(std::size_t size) {
  if (size <= 9) return 60;
  if (size <= 16) return 40;
  if (size <= 32) return 24;
  return 16;
}

std::string build_config(const FamilySpec& f, const SkewSpec& skew,
                         const std::string& mix, std::size_t variant,
                         std::uint64_t opt_seed, std::uint64_t city_seed,
                         const std::string& id) {
  std::ostringstream out;
  out << "# " << id << "\n";
  out << "# corpus stratum: family=" << f.family << " size=" << f.size
      << " target_skew=" << skew.name << " mix=" << mix
      << " variant=" << variant << "\n";
  out << topology_line(f, city_seed) << "\n";
  if (skew.name != std::string("uniform"))
    out << targets_line(skew.name, f.size) << "\n";
  // City maps past the paper scale also exercise the support-restricted
  // composition — except under the `full` mix, whose kitchen sink runs on
  // the unrestricted chain.
  // City jitter (up to 0.35 per axis) can put PoIs 0.3 apart; the sensing
  // discs must stay disjoint, so city maps run with a smaller radius.
  if (f.family == std::string("city")) out << "radius = 0.1\n";
  const bool support =
      f.family == std::string("city") && f.size >= 32 && mix != "full";
  if (support) out << "support_radius = 2.5\n";
  out << "alpha = 1\n";
  if (mix == "baseline") {
    out << "beta = 1\n";
  } else if (mix == "capture") {
    out << "beta = 0.5\n";
    out << "capture_weight = 2\n";
    out << "capture_duration = " << fmt17(1.0 + static_cast<double>(variant % 3))
        << "\n";
  } else if (mix == "minimax") {
    out << "beta = 0.1\n";
    out << "minimax_weight = 1.5\n";
    out << "smoothmax_beta = 6\n";
  } else if (mix == "capture_minimax") {
    out << "beta = 0.25\n";
    out << "capture_weight = 1\n";
    out << "capture_duration = 2\n";
    out << "minimax_weight = 1\n";
    out << "smoothmax_beta = 4\n";
  } else {  // full
    out << "beta = 1\n";
    out << "energy_gamma = 0.2\n";
    out << "energy_target = 0.5\n";
    out << "entropy_weight = 0.05\n";
    out << "capture_weight = 0.5\n";
    out << "capture_duration = 1.5\n";
    out << "minimax_weight = 0.5\n";
    out << "smoothmax_beta = 3\n";
    out << "smoothmax_beta_final = 12\n";
    out << "smoothmax_anneal_stages = 2\n";
  }
  if (mix_has_capture(mix)) {
    // Exact on the axis value, not a computed quantity.
    if (skew.lambda_skew != 0.0)
      out << "lambda_skew = " << fmt17(skew.lambda_skew) << "\n";
  }
  out << "algorithm = " << (variant == 3 ? "adaptive" : "perturbed") << "\n";
  out << "iterations = " << iterations_for(f.size) << "\n";
  out << "seed = " << (opt_seed % 1000000) << "\n";
  if (variant % 2 == 1) out << "random_start = true\n";
  return out.str();
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<Scenario> generate_corpus(const CorpusOptions& options) {
  constexpr std::size_t kFamilyCount = sizeof(kFamilies) / sizeof(kFamilies[0]);
  constexpr std::size_t kSkewCount = sizeof(kSkews) / sizeof(kSkews[0]);
  constexpr std::size_t kMixCount = sizeof(kMixes) / sizeof(kMixes[0]);
  constexpr std::size_t kStrata = kFamilyCount * kSkewCount * kMixCount;
  const std::size_t variants =
      (options.min_scenarios + kStrata - 1) / kStrata;
  if (variants == 0)
    throw std::invalid_argument("generate_corpus: min_scenarios must be > 0");

  std::uint64_t state = options.seed;
  std::vector<Scenario> out;
  out.reserve(kStrata * variants);
  // Variant-outermost order keeps the first kStrata scenarios one-per-
  // stratum, so any contiguous or strided slice of the manifest is already
  // stratified.
  for (std::size_t v = 0; v < variants; ++v) {
    for (const FamilySpec& f : kFamilies) {
      for (const SkewSpec& skew : kSkews) {
        for (const char* mix : kMixes) {
          // Two draws per scenario regardless of family, so every
          // scenario's seeds depend only on its index.
          const std::uint64_t opt_seed = splitmix64(state);
          const std::uint64_t city_seed = splitmix64(state);
          Scenario s;
          char idx[16];
          std::snprintf(idx, sizeof idx, "s%04zu", out.size());
          char m[8];
          std::snprintf(m, sizeof m, "m%02zu", f.size);
          s.id = std::string(idx) + "_" + f.family + "_" + m + "_" +
                 skew.name + "_" + mix + "_v" + std::to_string(v);
          s.family = f.family;
          s.size = f.size;
          s.target_skew = skew.name;
          s.lambda_skew = mix_has_capture(mix) ? skew.lambda_skew : 0.0;
          s.mix = mix;
          s.variant = v;
          s.seed = opt_seed % 1000000;
          s.config =
              build_config(f, skew, mix, v, opt_seed, city_seed, s.id);
          s.digest = fnv1a64(s.config);
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

std::vector<std::size_t> slice_indices(std::size_t total,
                                       std::size_t slice_target) {
  if (slice_target == 0)
    throw std::invalid_argument("slice_indices: slice_target must be > 0");
  const std::size_t step =
      total / slice_target == 0 ? 1 : total / slice_target;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < total; i += step) out.push_back(i);
  return out;
}

std::string manifest_text(const CorpusOptions& options,
                          const std::vector<Scenario>& scenarios) {
  std::ostringstream out;
  out << "# mocos corpus\tseed=" << options.seed
      << "\tscenarios=" << scenarios.size() << "\tslice="
      << slice_indices(scenarios.size(), options.slice_target).size() << "\n";
  out << "# index\tid\tfamily\tM\ttarget_skew\tlambda_skew\tmix\tvariant"
         "\tseed\tpath\tdigest\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    out << i << "\t" << s.id << "\t" << s.family << "\t" << s.size << "\t"
        << s.target_skew << "\t" << fmt17(s.lambda_skew) << "\t" << s.mix
        << "\t" << s.variant << "\t" << s.seed << "\tscenarios/" << s.id
        << ".conf\t" << hex16(s.digest) << "\n";
  }
  return out.str();
}

std::size_t write_corpus(const std::string& out_dir,
                         const CorpusOptions& options,
                         const std::vector<Scenario>& scenarios) {
  namespace fs = std::filesystem;
  const fs::path root(out_dir);
  fs::create_directories(root / "scenarios");
  auto write_file = [](const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    if (!out)
      throw std::runtime_error("write_corpus: cannot write " + path.string());
    out << text;
  };
  for (const Scenario& s : scenarios)
    write_file(root / "scenarios" / (s.id + ".conf"), s.config);

  std::ostringstream full;
  for (const Scenario& s : scenarios)
    full << "scenarios/" << s.id << ".conf\n";
  write_file(root / "full.list", full.str());

  std::ostringstream slice;
  for (std::size_t i : slice_indices(scenarios.size(), options.slice_target))
    slice << "scenarios/" << scenarios[i].id << ".conf\n";
  write_file(root / "slice.list", slice.str());

  write_file(root / "manifest.tsv", manifest_text(options, scenarios));
  return scenarios.size();
}

}  // namespace mocos::corpus
