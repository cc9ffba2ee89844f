// layer-violation: sparse sits below markov in the module DAG (MODULE_DEPS
// allows sparse -> {linalg, util} only). The markov layer calls down into
// the resolvent ladder, never the other way, so the second include is a
// forbidden upward edge; the first is the permitted near-miss.

#include "src/linalg/sparse_matrix.hpp"
#include "src/markov/transition_matrix.hpp"

namespace mocos::sparse {
void uses_upper_layer() {}
}  // namespace mocos::sparse
