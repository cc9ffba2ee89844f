// The zero-allocation contract of a dense line-search probe (DESIGN.md
// §9.5): after one warm-up probe, DescentLoop::probe on the Topology 4 paper
// problem with coverage, exposure and the barrier allocates nothing on the
// heap. A ctest executable of its own, because it replaces the global
// operator new to count allocations; sanitizer builds, whose runtimes
// interpose the allocator, do not build it.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/cost/gradient.hpp"
#include "src/descent/descent_loop.hpp"
#include "src/markov/resolvent.hpp"
#include "tests/helpers.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

int main() {
  using namespace mocos;
  constexpr std::size_t kProbes = 200;

  const core::Problem problem = test::paper_problem(4, 1.0, 1.0);
  const cost::CompositeCost cost = problem.make_cost();
  util::Rng rng(22);
  const markov::TransitionMatrix start =
      test::random_positive_chain(problem.num_pois(), rng);

  // The steepest direction at the start, as the V3 line search sees it.
  const markov::ResolventAnalysis analysis = test::unwrap(
      markov::try_resolvent_analysis(start, markov::SolvePolicy::kAuto,
                                     cost.analysis_level()));
  const linalg::SparseMatrix direction =
      cost::projected_cost_gradient(cost, analysis.chain,
                                    &*analysis.resolvent) *
      (-1.0);

  const descent::DescentConfig config;
  descent::DescentLoop loop(descent::DescentLoop::Driver::kSteepest, cost,
                            config, false, start);
  const double max_step = loop.max_step(direction);
  if (!(max_step > 0.0) || !std::isfinite(max_step)) {
    std::fprintf(stderr, "unusable max step %g\n", max_step);
    return 1;
  }

  double checksum = loop.probe(direction, 0.5 * max_step);  // warm-up
  const std::size_t before = g_allocations.load();
  for (std::size_t k = 0; k < kProbes; ++k) {
    // Distinct steps, so every probe is a fresh solve, not a memo hit.
    const double t = max_step * static_cast<double>(k + 1) /
                     static_cast<double>(kProbes + 1);
    checksum += loop.probe(direction, t);
  }
  const std::size_t allocations = g_allocations.load() - before;

  const descent::DescentResult result = loop.finish();
  const std::size_t solves = result.chain_stats.full_solves;
  std::printf("%zu probes: %zu heap allocations, %zu chain solves\n", kProbes,
              allocations, solves);
  if (!std::isfinite(checksum)) {
    std::fprintf(stderr, "a probe cost was not finite\n");
    return 1;
  }
  // The start, the warm-up and every probe: each a full dense solve.
  if (solves != kProbes + 2) {
    std::fprintf(stderr, "expected %zu chain solves\n", kProbes + 2);
    return 1;
  }
  if (allocations != 0) {
    std::fprintf(stderr, "expected no heap allocation in the probes\n");
    return 1;
  }
  return 0;
}
