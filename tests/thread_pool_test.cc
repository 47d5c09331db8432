#include "dist/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

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

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&total] { total.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(total.load(), 50 * (round + 1));
  }
}

TEST(ThreadPool, WaitWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolDeathTest, WaitInsidePoolTaskAborts) {
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&pool] { pool.Wait(); });
        pool.Wait();
      },
      "inside a pool task");
}

}  // namespace
}  // namespace dbtf
