#include "src/runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/obs/trace.hpp"

namespace mocos::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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
