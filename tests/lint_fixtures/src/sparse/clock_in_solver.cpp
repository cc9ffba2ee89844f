// Fixture: the sparse scope extension — src/sparse/ is inside the
// determinism scope (the resolvent ladder runs in every descent probe on a
// sparse route under the bit-identical-for-any---jobs contract, so ambient
// clocks and entropy are banned) and the raw-solver scope (the banded →
// BiCGSTAB → dense fallback ladder only works when every rung reports
// through Status instead of throwing). The raw-solver match is textual, so
// the call needs no include: an include of src/markov/ would itself be a
// layer-violation here (see upward_include.cpp).
// Expected violations: det-time at the steady_clock read and raw-solver at
// the stationary_distribution call.
#include <chrono>

namespace mocos::sparse {

inline long long iteration_deadline_probe() {
  const auto now = std::chrono::steady_clock::now();  // VIOLATION det-time
  return now.time_since_epoch().count();
}

inline double unguarded_crosscheck(const markov::TransitionMatrix& p) {
  return markov::stationary_distribution(p)[0];  // VIOLATION raw-solver
}

}  // namespace mocos::sparse
