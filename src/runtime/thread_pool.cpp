#include "src/runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/obs/trace.hpp"

namespace mocos::runtime {

namespace {

/// The CPUs a pool of `threads` workers pins its workers to, one each.
/// A pool with one worker per CPU of the process's affinity mask pins
/// worker i to the i-th of those CPUs. Left to the scheduler, a lightly
/// loaded pool can have every worker woken onto the waker's CPU while the
/// other CPUs stay idle for seconds: on a 4-vCPU guest, mocos_serve
/// --jobs 4 ran whole 240-request passes on one CPU, which doubled its
/// per-request times. A pool of any other size gets no CPUs and keeps the
/// process's mask: fewer pinned workers than CPUs would take CPUs away from
/// the scheduler, and more would share CPUs by construction.
std::vector<int> cpus_to_pin(std::size_t threads) {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (threads < 2 || sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      static_cast<std::size_t>(CPU_COUNT(&allowed)) != threads)
    return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
#else
  (void)threads;
#endif
  return cpus;
}

/// Best effort: a worker that cannot be pinned keeps the process's mask.
void pin_calling_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
#else
  (void)cpu;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::vector<int> cpus = cpus_to_pin(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i];
    // Each worker pins itself, so the constructor never waits for a
    // migration.
    workers_.emplace_back([this, cpu] {
      if (cpu >= 0) pin_calling_thread(cpu);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
  {
    util::MutexLock lock(mu_);
    if (stopping_)
      throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

TaskGroup::~TaskGroup() {
  // A group destroyed without wait() must still not leave tasks running with
  // dangling captures; block here. Exceptions captured but never observed
  // are dropped (destructors must not throw) — call wait() in normal flow.
  util::MutexLock lock(mu_);
  while (finished_ != submitted_) done_cv_.wait(mu_);
}

void TaskGroup::run(std::function<void()> task) {
  std::size_t index;
  {
    util::MutexLock lock(mu_);
    if (waited_)
      throw std::runtime_error("TaskGroup::run: group already waited on");
    index = submitted_++;
  }
  pool_.submit([this, index, task = std::move(task)] {
    std::exception_ptr error;
    try {
      // Span timing only — no metric counters here: TaskGroups never exist
      // at --jobs 1, so any metric emitted from this wrapper would break
      // jobs-invariance. Wall-time belongs to traces alone.
      if (obs::trace_active()) {
        obs::ScopedSpan span(
            "runtime.task", "runtime",
            obs::TraceArgs().num("index", static_cast<double>(index)));
        task();
      } else {
        task();
      }
    } catch (...) {
      error = std::current_exception();
    }
    // Notify while holding mu_: once finished_ reaches submitted_ and the
    // lock drops, a waiter may return from wait() and destroy this group,
    // done_cv_ included, so no member may be touched after the unlock.
    util::MutexLock lock(mu_);
    if (error) errors_.emplace_back(index, error);
    ++finished_;
    done_cv_.notify_all();
  });
}

void TaskGroup::wait() {
  std::exception_ptr error;
  {
    util::MutexLock lock(mu_);
    while (finished_ != submitted_) done_cv_.wait(mu_);
    waited_ = true;
    if (!errors_.empty()) {
      // Deterministic propagation: the lowest submission index wins,
      // regardless of the order in which workers hit their exceptions.
      auto first = std::min_element(
          errors_.begin(), errors_.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      error = first->second;
      errors_.clear();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mocos::runtime
