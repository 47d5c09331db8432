#include "dist/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>

namespace dbtf {
namespace {

TEST(ThreadPool, ClampsThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-5);
  EXPECT_EQ(pool2.num_threads(), 1);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.num_threads(), 4);
}

// The pool has no wait of its own: its destructor runs every queued task
// before it joins, and these cases synchronise on that drain.
TEST(ThreadPool, DestructorRunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DrainRunsTasksSubmittedByTasks) {
  // Each round submits 50 tasks and then the next round, as a delivery that
  // posts to an idle mailbox submits a drain; the destructor must run the
  // whole chain.
  std::atomic<int> total{0};
  std::function<void(int)> round;  // declared first: outlives the drain
  {
    ThreadPool pool(2);
    round = [&](int r) {
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&total] { total.fetch_add(1); });
      }
      if (r + 1 < 10) pool.Submit([&round, r] { round(r + 1); });
    };
    pool.Submit([&round] { round(0); });
  }
  EXPECT_EQ(total.load(), 50 * 10);
}

TEST(ThreadPool, DestroyingAnIdlePoolReturns) {
  { ThreadPool pool(2); }
  SUCCEED();
}

}  // namespace
}  // namespace dbtf
