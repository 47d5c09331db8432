// Regression test for the detach-during-dispatch lifetime rule: endpoints
// the cluster owns must stay alive, together with the Worker behind them,
// while a routing call is still running handlers on them, even if another
// thread calls DetachWorkers mid-flight. Routing snapshots share ownership,
// so the handler below keeps touching its worker after the detach without a
// use-after-free (run under ASan/TSan in CI).

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "dist/provision.h"
#include "dist/transport/inproc.h"
#include "dist/worker.h"
#include "test_util.h"

namespace dbtf {
namespace {

/// In-process endpoint whose broadcast handler announces itself and then
/// holds until the test has detached every endpoint, before it reaches the
/// Worker behind it.
class GatedEndpoint final : public WorkerEndpoint {
 public:
  struct Gate {
    std::atomic<int> entered{0};
    std::atomic<bool> detached{false};
  };

  GatedEndpoint(int machine, Gate* gate)
      : inner_(MakeInProcessEndpoint(std::make_shared<Worker>(machine))),
        gate_(gate) {}

  int machine() const override { return inner_->machine(); }

  Status Deliver(const FactorDelta& msg, double* compute_seconds) override {
    gate_->entered.fetch_add(1);
    while (!gate_->detached.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The registry is empty by now; the snapshot must still keep this
    // endpoint and its worker alive and readable.
    auto resident = inner_->ListPartitions(Mode::kOne, nullptr);
    EXPECT_TRUE(resident.ok());
    EXPECT_TRUE(resident->empty());
    return inner_->Deliver(msg, compute_seconds);
  }
  Status Deliver(const RunUpdateColumn& msg,
                 double* compute_seconds) override {
    return inner_->Deliver(msg, compute_seconds);
  }
  Status Collect(const CollectErrorsRequest& msg,
                 CollectErrorsResponse* response,
                 double* compute_seconds) override {
    return inner_->Collect(msg, response, compute_seconds);
  }
  Status Query(const QueryRequest& msg, QueryResponse* response,
               double* compute_seconds) override {
    return inner_->Query(msg, response, compute_seconds);
  }
  Status Store(StorePartitionRequest msg, double* compute_seconds) override {
    return inner_->Store(std::move(msg), compute_seconds);
  }
  Result<std::vector<std::int64_t>> ListPartitions(
      Mode mode, double* compute_seconds) override {
    return inner_->ListPartitions(mode, compute_seconds);
  }

 private:
  std::shared_ptr<WorkerEndpoint> inner_;
  Gate* gate_;
};

TEST(WorkerLifetimeTest, DetachDuringDispatchKeepsOwnedWorkersAlive) {
  ClusterConfig config;
  config.num_machines = 2;
  config.num_threads = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();
  GatedEndpoint::Gate gate;
  // The cluster holds the only references to the endpoints and workers.
  for (int m = 0; m < 2; ++m) {
    ASSERT_TRUE(
        cluster.AttachEndpoint(m, std::make_shared<GatedEndpoint>(m, &gate))
            .ok());
  }

  std::thread dispatcher([&] {
    FactorDelta msg;
    msg.apply_only = true;
    EXPECT_TRUE(cluster.BroadcastFactors(msg).ok());
  });

  while (gate.entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.DetachWorkers();
  EXPECT_EQ(cluster.num_attached_workers(), 0);
  gate.detached.store(true);
  dispatcher.join();
}

TEST(WorkerLifetimeTest, ProvisionFailsOnOccupiedClusterAndRollsBack) {
  ClusterConfig config;
  config.num_machines = 2;
  auto cluster_or = Cluster::Create(config);
  ASSERT_TRUE(cluster_or.ok());
  Cluster& cluster = *cluster_or.value();

  // Machine 0 already has a caller-attached endpoint: provisioning must fail
  // and detach whatever it managed to attach, leaving the cluster idle.
  testing::AttachScripted(cluster, {0});
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
