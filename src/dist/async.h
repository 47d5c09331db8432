#ifndef DBTF_DIST_ASYNC_H_
#define DBTF_DIST_ASYNC_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dbtf {

class ThreadPool;  // dist/thread_pool.h

/// Empty payload for futures that carry completion (and a Status) but no
/// value — the async routing primitives resolve to Result<Unit>.
struct Unit {};

namespace internal_async {

/// Shared completion state behind one Promise/Future pair. The value slot is
/// written exactly once (Promise::Set) and read any number of times
/// (Future::Get); `ready_` pairs with `mu_`.
template <typename T>
struct SharedState {
  Mutex mu_;
  std::condition_variable ready_;
  std::optional<Result<T>> value_ DBTF_GUARDED_BY(mu_);
};

}  // namespace internal_async

/// Read end of an asynchronous result. Futures are cheap shared handles:
/// copies observe the same completion, and Get() may be called repeatedly
/// (every call returns the same Result). A default-constructed future is
/// invalid; futures are obtained from Promise::future() — this header is the
/// only place the runtime mints them (enforced by tools/dbtf_lint.py, rule
/// async-seam: no std::promise/std::future in the tree).
template <typename T>
class Future {
 public:
  /// Invalid future; Get() on it aborts. Assign a real one before use.
  Future() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the promise is fulfilled and returns the result. Safe to
  /// call from any thread and more than once. Must not be called from a task
  /// whose completion the promise is waiting on (the usual future deadlock);
  /// in this runtime only the driver thread blocks on futures.
  Result<T> Get() const {
    DBTF_CHECK(state_ != nullptr, "Get() on an invalid (default) Future");
    internal_async::SharedState<T>& s = *state_;
    MutexLock lock(s.mu_);
    lock.Wait(s.ready_, [&s] {
      s.mu_.AssertHeld();
      return s.value_.has_value();
    });
    return *s.value_;
  }

 private:
  template <typename U>
  friend class Promise;

  explicit Future(std::shared_ptr<internal_async::SharedState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal_async::SharedState<T>> state_;
};

/// Write end of an asynchronous result. Fulfilled exactly once via Set();
/// fulfilling twice aborts (DBTF_CHECK) — double completion would mean a
/// routing fan-out lost track of its remaining-deliveries count.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<internal_async::SharedState<T>>()) {}

  /// A future observing this promise (callable any number of times).
  Future<T> future() const { return Future<T>(state_); }

  /// Fulfills the promise and wakes every Get().
  void Set(Result<T> value) {
    internal_async::SharedState<T>& s = *state_;
    {
      MutexLock lock(s.mu_);
      DBTF_CHECK(!s.value_.has_value(), "a Promise is fulfilled exactly once");
      s.value_.emplace(std::move(value));
    }
    s.ready_.notify_all();
  }

 private:
  std::shared_ptr<internal_async::SharedState<T>> state_;
};

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
/// on pool completion (ThreadPool::Wait check-fails on a pool thread) or on
/// a future their own mailbox must fulfil.
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
