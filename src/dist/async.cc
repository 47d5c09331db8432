#include "dist/async.h"

#include <utility>

#include "common/check.h"
#include "dist/thread_pool.h"

namespace dbtf {

Mailbox::Mailbox(ThreadPool* pool) : pool_(pool) {
  DBTF_CHECK(pool != nullptr, "a Mailbox needs a pool to drain on");
}

Mailbox::~Mailbox() { WaitIdle(); }

void Mailbox::Post(std::function<void()> task) {
  bool start_drain = false;
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    if (!draining_) {
      draining_ = true;
      start_drain = true;
    }
  }
  if (start_drain) pool_->Submit([this] { Drain(); });
}

void Mailbox::Drain() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) {
        draining_ = false;
        idle_.notify_all();
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void Mailbox::WaitIdle() {
  MutexLock lock(mu_);
  lock.Wait(idle_, [this] {
    mu_.AssertHeld();
    return !draining_ && queue_.empty();
  });
}

}  // namespace dbtf
