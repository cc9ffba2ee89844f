#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace mocos::runtime {

/// Fixed-size worker pool: `threads` OS threads pulling tasks off one queue.
///
/// The pool is a dumb executor on purpose — determinism lives one level up.
/// Callers index their work (task i writes slot i, draws from RNG stream i)
/// so results are independent of which worker runs what and in which order;
/// the pool only provides the concurrency.
class ThreadPool {
 public:
  /// Spawns `threads` workers. `threads == 0` uses the hardware concurrency
  /// (at least 1). When `threads` equals the number of CPUs in the
  /// process's affinity mask, each worker is pinned to its own CPU (Linux).
  explicit ThreadPool(std::size_t threads);

  /// Drains nothing: outstanding tasks still run, but new submissions are
  /// rejected; joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. The task must not throw out of the pool — wrap work in
  /// a TaskGroup (which captures exceptions per task) or catch internally.
  void submit(std::function<void()> task) MOCOS_EXCLUDES(mu_);

  /// Tasks queued but not yet picked up by a worker. Advisory only — the
  /// value is stale the moment the lock drops; admission control in
  /// mocos_serve keeps its own authoritative in-flight count.
  [[nodiscard]] std::size_t pending() const MOCOS_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return queue_.size();
  }

 private:
  void worker_loop() MOCOS_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  mutable util::Mutex mu_;
  std::deque<std::function<void()>> queue_ MOCOS_GUARDED_BY(mu_);
  util::CondVar cv_;
  bool stopping_ MOCOS_GUARDED_BY(mu_) = false;
};

/// Tracks a batch of tasks submitted to a pool and waits for all of them.
///
/// Exceptions thrown by tasks are captured per submission index; `wait()`
/// rethrows the one with the lowest index, so the propagated error is the
/// same no matter how the scheduler interleaved the tasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  /// Waits (and swallows nothing: terminates if a captured exception was
  /// never observed via wait()). Call wait() explicitly in normal flow.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` as the next indexed member of the group.
  void run(std::function<void()> task) MOCOS_EXCLUDES(mu_);

  /// Blocks until every submitted task finished; rethrows the
  /// lowest-submission-index captured exception, if any.
  void wait() MOCOS_EXCLUDES(mu_);

 private:
  ThreadPool& pool_;
  util::Mutex mu_;
  util::CondVar done_cv_;
  std::size_t submitted_ MOCOS_GUARDED_BY(mu_) = 0;
  std::size_t finished_ MOCOS_GUARDED_BY(mu_) = 0;
  bool waited_ MOCOS_GUARDED_BY(mu_) = false;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_
      MOCOS_GUARDED_BY(mu_);
};

}  // namespace mocos::runtime
