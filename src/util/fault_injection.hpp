#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

/// Deterministic fault injection for the numerical-failure containment tests.
///
/// Instrumented sites in the library call `fault::fire(Site::...)` at the top
/// of the fragile operation; tests arm a site to make that call return true
/// on chosen invocations (the k-th factorization, every gradient after
/// iteration 10, a seeded 5% of line searches, ...). The instrumented code
/// then fails exactly the way the real failure mode would — try_factor
/// reports kSingularMatrix, the gradient comes back NaN, the line search
/// rejects the step — so the recovery ladder is exercised end to end.
///
/// Compiled in when MOCOS_FAULT_INJECTION is defined (the default CMake
/// configuration, so the test suite can use it). When the macro is absent
/// every hook collapses to `constexpr false` and the instrumented branches
/// are dead-stripped: zero overhead for production builds
/// (-DMOCOS_FAULT_INJECTION=OFF).
namespace mocos::util::fault {

enum class Site : std::size_t {
  kLuFactor = 0,   // LuDecomposition factorization reports singular
  kStationary,     // direct stationary solve fails (exercises power fallback)
  kGradient,       // cost gradient is poisoned with NaN
  kLineSearch,     // trisection search returns Δt* = 0 (step rejected)
  // Request-layer sites (mocos_serve): each must surface as one structured
  // response — never as process death.
  kServeDecodeFault,  // NDJSON request decoding fails (malformed-input path)
  kServeQueueFull,    // admission control reports a full queue (load shed)
  kServeStuckWorker,  // worker wedges past its deadline, ignoring the
                      // cooperative cancellation check (watchdog path)
  kSiteCount,      // sentinel
};

const char* to_string(Site site);

/// Inverse of to_string ("serve-queue-full" -> kServeQueueFull); nullopt for
/// unknown names. Used by the mocos_serve --fault flag, which arms sites by
/// their stable identifiers.
std::optional<Site> site_from_string(std::string_view name);

#ifdef MOCOS_FAULT_INJECTION

/// Arms `site` to fire on invocations [fire_at, fire_at + count) counted
/// from the moment of arming (0-based). Re-arming a site resets its counter.
void arm(Site site, std::uint64_t fire_at, std::uint64_t count = 1);

/// Arms `site` to fire on a deterministic, seed-reproducible subset of
/// invocations with the given probability (xorshift stream; two runs with
/// the same seed inject identical faults).
void arm_probabilistic(Site site, double probability, std::uint64_t seed);

void disarm(Site site);
void disarm_all();

/// Invocations of `site` observed since it was last armed (also counts while
/// disarmed, from process start).
std::uint64_t evaluations(Site site);
/// Invocations on which the site actually fired since last armed.
std::uint64_t fired(Site site);

/// The hook the instrumented library code calls. Returns true when the
/// current invocation should fail.
bool fire(Site site);

#else

inline void arm(Site, std::uint64_t, std::uint64_t = 1) {}
inline void arm_probabilistic(Site, double, std::uint64_t) {}
inline void disarm(Site) {}
inline void disarm_all() {}
inline std::uint64_t evaluations(Site) { return 0; }
inline std::uint64_t fired(Site) { return 0; }
constexpr bool fire(Site) { return false; }

#endif  // MOCOS_FAULT_INJECTION

/// RAII arming for tests: disarms everything on scope exit even when the
/// test assertion throws.
struct ScopedFault {
  ScopedFault(Site site, std::uint64_t fire_at, std::uint64_t count = 1) {
    arm(site, fire_at, count);
  }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
  ~ScopedFault() { disarm_all(); }
};

}  // namespace mocos::util::fault
