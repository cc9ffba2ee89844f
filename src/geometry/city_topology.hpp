#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geometry/topology.hpp"

namespace mocos::geometry {

/// City-scale random-geometric map: a jittered grid of PoIs. The grid keeps
/// placement O(N) and deterministic (no dart throwing at N = 10k), the
/// jitter breaks the lattice symmetry so chains on it behave like irregular
/// street maps.
struct CityConfig {
  std::size_t count = 1024;
  /// Grid cell edge length.
  double spacing = 1.0;
  /// Per-coordinate displacement is uniform in ±jitter·spacing. Capped at
  /// 0.35 so neighbouring PoIs stay >= 0.3·spacing apart — the topology's
  /// pairwise-distinct invariant holds by construction.
  double jitter = 0.35;
  std::uint64_t seed = 0;
};

/// Builds the jittered-grid topology. PoI index order is row-major cell
/// order, so indices are spatially sorted — the layout the bandwidth
/// ordering exploits. Target shares are sampled
/// like random_topology's (min weight 0.2, normalized). Deterministic from
/// `config.seed` alone. Throws std::invalid_argument for count < 2 or
/// non-positive spacing.
[[nodiscard]] Topology city_topology(const CityConfig& config);

/// For each PoI, the sorted indices of all PoIs within `radius` (self
/// included) — the support neighbourhoods of a city-scale sparse chain.
/// Uses a spatial hash with radius-sized cells, so the whole sweep is
/// O(N · neighbours) instead of O(N²).
[[nodiscard]] std::vector<std::vector<std::size_t>> radius_neighbors(
    const Topology& topology, double radius);

}  // namespace mocos::geometry
