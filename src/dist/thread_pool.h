#ifndef DBTF_DIST_THREAD_POOL_H_
#define DBTF_DIST_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbtf {

/// Fixed-size worker pool. Tasks are arbitrary callables; the destructor
/// runs every queued task before it joins the threads. Callers that need a
/// result wait on their own completion signal (Mailbox::WaitIdle, or the
/// routing latch in dist/cluster.cc). Not copyable or movable.
///
/// Locking discipline (machine-checked under Clang `-Wthread-safety`): the
/// queue and the shutdown flag are guarded by `mu_`; the condition variable
/// pairs with it. `threads_` is written only by the constructor and joined
/// by the destructor, so it needs no guard.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  /// Drains the queue, including tasks that queued tasks submit, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) DBTF_EXCLUDES(mu_);

 private:
  void WorkerLoop() DBTF_EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_ DBTF_GUARDED_BY(mu_);
  bool shutting_down_ DBTF_GUARDED_BY(mu_) = false;
};

}  // namespace dbtf

#endif  // DBTF_DIST_THREAD_POOL_H_
