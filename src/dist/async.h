#ifndef DBTF_DIST_ASYNC_H_
#define DBTF_DIST_ASYNC_H_

#include <condition_variable>
#include <deque>
#include <functional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbtf {

class ThreadPool;  // dist/thread_pool.h

/// Serial execution queue bound to one logical endpoint (one machine of the
/// simulated cluster), multiplexed onto the shared ThreadPool.
///
/// Tasks posted to a mailbox run one at a time, in post order — never
/// concurrently with each other, possibly concurrently with other mailboxes.
/// That FIFO guarantee is what keeps the runtime deterministic under
/// overlap: the FaultInjector's per-(machine, message-kind) delivery
/// counters advance in enqueue order, and a Worker's handlers are never
/// invoked concurrently (Worker deliberately has no mutex — see
/// dist/worker.h).
///
/// Implementation: posting to an idle mailbox submits one drain task to the
/// pool; the drain runs queued tasks until the queue is empty and then
/// retires, so an idle mailbox occupies no pool thread. Tasks must not block
/// on work that their own mailbox would have to run.
///
/// Mailboxes are the runtime's one asynchrony primitive: std::promise,
/// std::future and std::async appear nowhere outside src/dist/ (enforced by
/// tools/dbtf_analyze.py, rule async-seam).
class Mailbox {
 public:
  /// The pool must outlive the mailbox.
  explicit Mailbox(ThreadPool* pool);

  /// Waits for the queue to drain (WaitIdle) before destruction.
  ~Mailbox();

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues `task` behind every previously posted task.
  void Post(std::function<void()> task) DBTF_EXCLUDES(mu_);

  /// Blocks until every posted task has finished.
  void WaitIdle() DBTF_EXCLUDES(mu_);

 private:
  /// Runs on the pool: executes tasks in FIFO order until the queue is empty.
  void Drain() DBTF_EXCLUDES(mu_);

  ThreadPool* pool_;
  Mutex mu_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_ DBTF_GUARDED_BY(mu_);
  /// True while a drain task owns the queue (posting then only enqueues).
  bool draining_ DBTF_GUARDED_BY(mu_) = false;
};

}  // namespace dbtf

#endif  // DBTF_DIST_ASYNC_H_
