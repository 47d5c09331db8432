#include "dist/thread_pool.h"

#include <utility>

namespace dbtf {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      lock.Wait(work_available_, [this] {
        mu_.AssertHeld();
        return shutting_down_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace dbtf
