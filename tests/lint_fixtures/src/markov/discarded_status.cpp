// Fixture: discarded-status — the Status/StatusOr result of a guarded call
// dropped on the floor. The bound call and multi-line assignment below must
// NOT be flagged.
#include "src/markov/stationary.hpp"
#include "src/linalg/guard.hpp"

namespace mocos::markov {

double solve(const TransitionMatrix& p, const linalg::Vector& pi) {
  try_stationary_distribution(p);  // VIOLATION discarded-status (line 10)
  const auto bound = try_stationary_distribution(p);  // bound: no violation
  const util::Status multi_line =
      util::check_probability_vector(pi);  // continuation: no violation
  if (!multi_line.is_ok()) return 0.0;
  return bound.ok() ? bound.value()[0] : 0.0;
}

}  // namespace mocos::markov
