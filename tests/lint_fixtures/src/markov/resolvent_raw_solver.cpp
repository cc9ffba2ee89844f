// Fixture: the src/markov/resolvent* scope extension — the resolvent solve
// is every descent probe's chain solve, so both the raw-solver and
// determinism rules apply to it even though the rest of src/markov/ is out
// of scope.
// Expected violations: raw-solver at the analyze_chain call (line 15),
// det-unordered at the range-for (line 17).
#include <unordered_map>

#include "src/markov/fundamental.hpp"

namespace mocos::markov {

double probe_cost(const TransitionMatrix& p) {
  std::unordered_map<int, double> weights = {{0, 1.0}};
  const auto chain = analyze_chain(p);  // VIOLATION raw-solver
  double total = 0.0;
  for (const auto& entry : weights) {  // VIOLATION det-unordered
    total += entry.second * chain.pi[0];
  }
  return total;
}

}  // namespace mocos::markov
