#include "src/partition/spatial_partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace mocos::partition {

std::vector<std::size_t> bandwidth_ordering(const sparse::SparseMatrix& p) {
  const std::size_t n = p.rows();
  if (p.rows() != p.cols())
    throw std::invalid_argument("bandwidth_ordering: P must be square");
  std::vector<std::vector<std::size_t>> adj(n);
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::size_t j = cols[e];
      if (j == i) continue;
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  auto degree = [&](std::size_t v) { return adj[v].size(); };

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  // Per component: start from the minimum-degree vertex (lowest index on
  // ties), BFS with neighbors sorted by (degree, index), then reverse the
  // whole concatenation at the end (the "R" in RCM).
  for (;;) {
    std::size_t start = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (seen[v] && v != start) continue;
      if (!seen[v] && (start == n || degree(v) < degree(start)))
        start = v;
    }
    if (start == n) break;
    seen[start] = true;
    const std::size_t component_begin = order.size();
    order.push_back(start);
    for (std::size_t head = component_begin; head < order.size(); ++head) {
      std::vector<std::size_t> next;
      for (std::size_t j : adj[order[head]])
        if (!seen[j]) next.push_back(j);
      std::sort(next.begin(), next.end(),
                [&](std::size_t a, std::size_t b) {
                  return degree(a) != degree(b) ? degree(a) < degree(b)
                                                : a < b;
                });
      for (std::size_t j : next) {
        seen[j] = true;
        order.push_back(j);
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::size_t pattern_bandwidth(const sparse::SparseMatrix& p,
                              const std::vector<std::size_t>& perm) {
  const std::size_t n = p.rows();
  if (perm.size() != n)
    throw std::invalid_argument("pattern_bandwidth: permutation size");
  std::vector<std::size_t> inv(n, 0);
  for (std::size_t k = 0; k < n; ++k) inv[perm[k]] = k;
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  std::size_t b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::size_t a = inv[i];
      const std::size_t c = inv[cols[e]];
      b = std::max(b, a > c ? a - c : c - a);
    }
  }
  return b;
}

}  // namespace mocos::partition
