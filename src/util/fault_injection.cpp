#include "src/util/fault_injection.hpp"

#ifdef MOCOS_FAULT_INJECTION
#include <atomic>
#include <string>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#endif

namespace mocos::util::fault {

const char* to_string(Site site) {
  switch (site) {
    case Site::kLuFactor:
      return "lu-factor";
    case Site::kStationary:
      return "stationary";
    case Site::kGradient:
      return "gradient";
    case Site::kLineSearch:
      return "line-search";
    case Site::kServeDecodeFault:
      return "serve-decode";
    case Site::kServeQueueFull:
      return "serve-queue-full";
    case Site::kServeStuckWorker:
      return "serve-stuck-worker";
    case Site::kSiteCount:
      break;
  }
  return "unknown";
}

std::optional<Site> site_from_string(std::string_view name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Site::kSiteCount);
       ++i) {
    const Site site = static_cast<Site>(i);
    if (name == to_string(site)) return site;
  }
  return std::nullopt;
}

#ifdef MOCOS_FAULT_INJECTION

namespace {

enum class Mode : std::uint8_t { kDisarmed, kWindow, kProbabilistic };

/// Per-site state, lock-free so instrumented hot paths stay cheap when
/// workers run concurrently. Arm/disarm publish the configuration fields
/// first and flip `mode` last (release); `fire` reads `mode` with acquire,
/// so a hit never observes a half-written configuration. The counters are
/// plain relaxed atomics — tests only read them after the parallel region.
struct SiteState {
  std::atomic<Mode> mode{Mode::kDisarmed};
  std::atomic<std::uint64_t> fire_at{0};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> probability{0.0};
  std::atomic<std::uint64_t> rng_state{0};
  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> fired{0};
};

SiteState g_sites[static_cast<std::size_t>(Site::kSiteCount)];

SiteState& state(Site site) {
  return g_sites[static_cast<std::size_t>(site)];
}

std::uint64_t xorshift_next(std::uint64_t s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s;
}

// xorshift64*: tiny, deterministic, good enough for fault sampling.
double to_uniform(std::uint64_t s) {
  const std::uint64_t r = s * 0x2545F4914F6CDD1DULL;
  return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
}

void reset(SiteState& s) {
  // Take the site out of service before clearing its configuration so a
  // concurrent fire() never samples stale settings under a live mode.
  s.mode.store(Mode::kDisarmed, std::memory_order_release);
  s.fire_at.store(0, std::memory_order_relaxed);
  s.count.store(0, std::memory_order_relaxed);
  s.probability.store(0.0, std::memory_order_relaxed);
  s.rng_state.store(0, std::memory_order_relaxed);
  s.evaluations.store(0, std::memory_order_relaxed);
  s.fired.store(0, std::memory_order_relaxed);
}

}  // namespace

void arm(Site site, std::uint64_t fire_at, std::uint64_t count) {
  SiteState& s = state(site);
  reset(s);
  s.fire_at.store(fire_at, std::memory_order_relaxed);
  s.count.store(count, std::memory_order_relaxed);
  s.mode.store(Mode::kWindow, std::memory_order_release);
}

void arm_probabilistic(Site site, double probability, std::uint64_t seed) {
  SiteState& s = state(site);
  reset(s);
  s.probability.store(probability, std::memory_order_relaxed);
  s.rng_state.store(seed ? seed : 0x9E3779B97F4A7C15ULL,
                    std::memory_order_relaxed);
  s.mode.store(Mode::kProbabilistic, std::memory_order_release);
}

void disarm(Site site) { reset(state(site)); }

void disarm_all() {
  for (auto& s : g_sites) reset(s);
}

std::uint64_t evaluations(Site site) {
  return state(site).evaluations.load(std::memory_order_relaxed);
}

std::uint64_t fired(Site site) {
  return state(site).fired.load(std::memory_order_relaxed);
}

bool fire(Site site) {
  SiteState& s = state(site);
  const std::uint64_t n =
      s.evaluations.fetch_add(1, std::memory_order_relaxed);
  bool hit = false;
  switch (s.mode.load(std::memory_order_acquire)) {
    case Mode::kDisarmed:
      break;
    case Mode::kWindow:
      hit = n >= s.fire_at.load(std::memory_order_relaxed) &&
            n < s.fire_at.load(std::memory_order_relaxed) +
                    s.count.load(std::memory_order_relaxed);
      break;
    case Mode::kProbabilistic: {
      // Advance the shared xorshift stream with a CAS loop: every invocation
      // consumes exactly one state, so the injected-fault *count* stays
      // seed-reproducible even though which thread draws which state is
      // scheduling-dependent.
      std::uint64_t prev = s.rng_state.load(std::memory_order_relaxed);
      std::uint64_t next;
      do {
        next = xorshift_next(prev);
      } while (!s.rng_state.compare_exchange_weak(
          prev, next, std::memory_order_relaxed, std::memory_order_relaxed));
      hit = to_uniform(next) <
            s.probability.load(std::memory_order_relaxed);
      break;
    }
  }
  if (hit) {
    s.fired.fetch_add(1, std::memory_order_relaxed);
    // Rare by construction (a firing injected fault), so the string build is
    // off the hot path; the un-hit call stays two relaxed atomic ops.
    obs::count(std::string("fault.fired.") + to_string(site));
    if (obs::trace_active()) {
      obs::trace_instant("fault.fired", "fault",
                         obs::TraceArgs().str("site", to_string(site)));
    }
  }
  return hit;
}

#endif  // MOCOS_FAULT_INJECTION

}  // namespace mocos::util::fault
