// lock-across-parallel: the pool may execute tasks inline on the calling
// thread (and always does at --jobs 1), so fanning work out while holding
// a lock self-deadlocks the moment a task takes the same lock. The second
// function shows the fix: close the guard's scope before dispatching.

#include "src/runtime/parallel_for.hpp"
#include "src/util/mutex.hpp"

namespace mocos::sim {

util::Mutex mu;
int shared_total = 0;

void bad(int n) {
  util::MutexLock lock(mu);
  shared_total = n;
  runtime::parallel_for(0, n, [](int) {});
}

void good(int n) {
  {
    util::MutexLock lock(mu);
    shared_total = n;
  }
  runtime::parallel_for(0, n, [](int) {});
}

}  // namespace mocos::sim
