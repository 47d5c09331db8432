#ifndef DBTF_DIST_THREAD_POOL_H_
#define DBTF_DIST_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbtf {

/// Fixed-size worker pool. Tasks are arbitrary callables; Wait blocks until
/// every submitted task has finished. Not copyable or movable.
///
/// Locking discipline (machine-checked under Clang `-Wthread-safety`): all
/// queue and completion state is guarded by `mu_`; the condition variables
/// pair with it. `threads_` is written only by the constructor and joined by
/// the destructor, so it needs no guard.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) DBTF_EXCLUDES(mu_);

  /// Blocks until all submitted tasks have completed. Calling it from inside
  /// a pool task would deadlock — the calling task counts as in flight — so
  /// it check-fails with a clear message when invoked on a pool-owned thread
  /// (thread-local flag).
  void Wait() DBTF_EXCLUDES(mu_);

 private:
  void WorkerLoop() DBTF_EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_ DBTF_GUARDED_BY(mu_);
  std::int64_t in_flight_ DBTF_GUARDED_BY(mu_) = 0;
  bool shutting_down_ DBTF_GUARDED_BY(mu_) = false;
};

}  // namespace dbtf

#endif  // DBTF_DIST_THREAD_POOL_H_
