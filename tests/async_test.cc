#include "dist/async.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/thread_pool.h"
#include "test_util.h"

namespace dbtf {
namespace {

TEST(Mailbox, RunsTasksInPostOrder) {
  ThreadPool pool(4);
  Mailbox mailbox(&pool);
  // The order vector is written only from mailbox tasks, which the mailbox
  // runs strictly one at a time — no mutex needed, and TSan verifies that
  // the serialization is real.
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    mailbox.Post([&order, i] { order.push_back(i); });
  }
  mailbox.WaitIdle();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Mailbox, NeverRunsTwoTasksConcurrently) {
  ThreadPool pool(4);
  Mailbox mailbox(&pool);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    mailbox.Post([&active, &max_active, &ran] {
      const int now = active.fetch_add(1) + 1;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      active.fetch_sub(1);
      ran.fetch_add(1);
    });
  }
  mailbox.WaitIdle();
  EXPECT_EQ(ran.load(), 500);
  EXPECT_EQ(max_active.load(), 1) << "mailbox tasks must be serial";
}

TEST(Mailbox, IdleMailboxAcceptsLaterBursts) {
  ThreadPool pool(2);
  Mailbox mailbox(&pool);
  std::vector<int> order;
  mailbox.Post([&order] { order.push_back(0); });
  mailbox.WaitIdle();
  for (int i = 1; i <= 3; ++i) {
    mailbox.Post([&order, i] { order.push_back(i); });
  }
  mailbox.WaitIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// The determinism anchor of the routing runtime: N machines, K rounds of
// broadcast + fused dispatch/collect under a fault plan with transient
// failures and a stall. Every machine must see its deliveries in exact
// enqueue order (mailbox FIFO), every handler must run exactly once per
// round (faults fail *before* the handler; retries redeliver), and the
// ledger must charge exactly once per event. Run under TSan this is also
// the concurrency stress for mailboxes, the routing latch, and the ledger.
TEST(AsyncCluster, RoundsStayFifoAndChargeExactlyOnce) {
  constexpr int kMachines = 4;
  constexpr int kRounds = 8;
  constexpr std::int64_t kBroadcastBytes = 64;

  ClusterConfig config;
  config.num_machines = kMachines;
  config.num_threads = 4;
  auto plan = FaultPlan::Parse(
      "0:dispatch:transient@2,1:collect:transient@1,"
      "2:broadcast:transient@3,3:dispatch:stall@2~0.01");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = *plan;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  const auto endpoints = testing::AttachScripted(**cluster, {0, 1, 2, 3});
  for (int m = 0; m < kMachines; ++m) {
    endpoints[static_cast<std::size_t>(m)]->collect_bytes = m * 10 + 1;
  }

  const FactorDelta broadcast = testing::SizedBroadcast(kBroadcastBytes);
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE((*cluster)->BroadcastFactors(broadcast).ok());
    CollectErrorsResponse response;
    ASSERT_TRUE((*cluster)
                    ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                                &response)
                    .ok());
  }

  // Per-machine FIFO: broadcast, dispatch, collect of round r, then round
  // r+1 — exactly the enqueue order, independent of thread scheduling.
  std::vector<MessageKind> expected;
  for (int round = 0; round < kRounds; ++round) {
    expected.insert(expected.end(),
                    {MessageKind::kBroadcast, MessageKind::kDispatch,
                     MessageKind::kCollect});
  }
  for (int m = 0; m < kMachines; ++m) {
    EXPECT_EQ(endpoints[static_cast<std::size_t>(m)]->log(), expected)
        << "machine " << m;
  }

  // Exactly-once ledger charging despite retries: one broadcast event per
  // round priced for all machines, one collect event per round summing the
  // per-machine bytes.
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_events, kRounds);
  EXPECT_EQ(snap.broadcast_bytes, kRounds * kBroadcastBytes * kMachines);
  EXPECT_EQ(snap.collect_events, kRounds);
  EXPECT_EQ(snap.collect_bytes, kRounds * (1 + 11 + 21 + 31));
  // The three planned transient faults each failed one delivery attempt and
  // were retried; the stall neither fails nor retries.
  const RecoveryStats recovery = (*cluster)->recovery().Snapshot();
  EXPECT_EQ(recovery.failed_deliveries, 3);
  EXPECT_EQ(recovery.machines_lost, 0);

  (*cluster)->DetachWorkers();
}

}  // namespace
}  // namespace dbtf
