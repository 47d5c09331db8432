// Regression test for the detach-during-dispatch lifetime rule: workers the
// cluster owns (attached via the shared_ptr overload, as dist/provision.h
// does) must stay alive while a routing call is still running handlers on
// them, even if another thread calls DetachWorkers mid-flight. Routing
// snapshots share ownership, so the handler below keeps touching its worker
// after the detach without a use-after-free (run under ASan/TSan in CI).

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "dist/provision.h"
#include "dist/worker.h"

namespace dbtf {
namespace {

TEST(WorkerLifetimeTest, DetachDuringDispatchKeepsOwnedWorkersAlive) {
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();
  ASSERT_TRUE(ProvisionWorkers(cluster).ok());
  ASSERT_EQ(cluster.num_attached_workers(), 2);

  std::atomic<int> entered{0};
  std::atomic<bool> detached{false};

  std::thread dispatcher([&] {
    const Status status = cluster.DispatchToWorkers([&](Worker& w) {
      entered.fetch_add(1);
      while (!detached.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // The registry is empty by now; the snapshot must still keep this
      // worker alive and readable.
      EXPECT_GE(w.machine(), 0);
      EXPECT_EQ(w.NumLocalPartitions(Mode::kOne), 0);
      return Status::OK();
    });
    EXPECT_TRUE(status.ok());
  });

  while (entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.DetachWorkers();
  EXPECT_EQ(cluster.num_attached_workers(), 0);
  detached.store(true);
  dispatcher.join();
}

TEST(WorkerLifetimeTest, ProvisionFailsOnOccupiedClusterAndRollsBack) {
  ClusterConfig config;
  config.num_machines = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();

  // Machine 0 already has a caller-owned endpoint: provisioning must fail
  // and detach whatever it managed to attach, leaving the cluster idle.
  Worker external(0);
  ASSERT_TRUE(cluster.AttachWorker(0, &external).ok());
  EXPECT_FALSE(ProvisionWorkers(cluster).ok());
  EXPECT_EQ(cluster.num_attached_workers(), 0);
}

TEST(WorkerLifetimeTest, StorePartitionRequiresAnEndpoint) {
  ClusterConfig config;
  config.num_machines = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  const Status status =
      StorePartitions(*cluster_or.value(), Mode::kOne,
                      std::vector<Partition>(1), UnfoldShape{0, 0, 0});
  EXPECT_FALSE(status.ok());
}


TEST(WorkerLifetimeTest, StorePartitionsReportsTheLowestFailingIndex) {
  ClusterConfig config;
  config.num_machines = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();
  ASSERT_TRUE(ProvisionWorkers(cluster).ok());
  // Machine 1 loses its endpoint: its partitions (odd indexes under
  // round-robin) fail, machine 0's are still stored.
  cluster.RestoreDeadMachine(1);
  std::vector<Partition> parts(4);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    parts[p].col_begin = static_cast<std::int64_t>(p);
    parts[p].col_end = static_cast<std::int64_t>(p) + 1;
  }
  const Status status = StorePartitions(cluster, Mode::kOne, std::move(parts),
                                        UnfoldShape{1, 1, 4});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  auto local = cluster.EndpointOn(0)->ListPartitions(Mode::kOne, nullptr);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*local, (std::vector<std::int64_t>{0, 2}));
}

}  // namespace
}  // namespace dbtf
