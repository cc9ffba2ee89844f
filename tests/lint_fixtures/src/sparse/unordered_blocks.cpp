// Fixture: the sparse scope extension, second file — src/sparse/ is inside
// the determinism scope (the ladder's permutations and sweeps must be
// bit-identical at any --jobs count, so folds over unordered containers are
// banned) and the raw-solver scope (the ladder's dense-fallback contract
// requires the guarded try_* layer). The raw-solver match is textual, so
// the call needs no include: an include of src/markov/ would itself be a
// layer-violation here (see upward_include.cpp).
// Expected violations: det-unordered at the range-for over the
// unordered_map and raw-solver at the analyze_chain call.
#include <cstddef>
#include <unordered_map>

namespace mocos::sparse {

inline double sum_band_masses() {
  std::unordered_map<std::size_t, double> mass;
  mass[0] = 1.0;
  double total = 0.0;
  for (const auto& kv : mass) total += kv.second;  // VIOLATION det-unordered
  return total;
}

inline double unguarded_ladder_solve(const markov::TransitionMatrix& p) {
  return markov::analyze_chain(p).pi[0];  // VIOLATION raw-solver
}

}  // namespace mocos::sparse
