// layer-violation: `unlisted` has no row in MODULE_DEPS, which reads as a
// row that permits nothing, so both includes from other modules are
// forbidden edges. The include from its own module is allowed.

#include "src/unlisted/helper.hpp"
#include "src/serve/server.hpp"
#include "src/cli/cli.hpp"

namespace mocos::unlisted {
void reaches_the_top_layers() {}
}  // namespace mocos::unlisted
