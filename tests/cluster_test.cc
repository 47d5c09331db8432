#include "dist/cluster.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dist/transport/inproc.h"
#include "dist/worker.h"
#include "test_util.h"

namespace dbtf {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_machines = 4;
  config.num_threads = 2;
  return config;
}

TEST(ClusterConfig, Validation) {
  ClusterConfig config = SmallConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.num_machines = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.num_threads = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.network_bandwidth_bytes_per_second = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.network_latency_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());
  // Non-finite values satisfy no ordering comparison, so a plain bound check
  // would silently accept them (NaN) or accept a meaningless model (Inf).
  config = SmallConfig();
  config.network_bandwidth_bytes_per_second =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config.network_bandwidth_bytes_per_second =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.network_latency_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.driver_seconds_per_byte = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig();
  config.driver_seconds_per_byte = -0.001;
  EXPECT_FALSE(config.Validate().ok());
  // Both knobs bad at once must still be rejected (whichever is checked
  // first), not cancel out in some combined cost expression.
  config.network_bandwidth_bytes_per_second = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ClusterConfig, ValidationCoversTransportOptions) {
  // The transport options validate as part of ClusterConfig::Validate, so a
  // mis-specified deployment dies at Cluster::Create, not at first delivery.
  ClusterConfig config = SmallConfig();
  config.transport.kind = TransportKind::kSocket;
  EXPECT_TRUE(config.Validate().ok());

  // Worker-count mismatch: socket_workers must be 0 (one per machine) or
  // exactly num_machines.
  config.transport.socket_workers = config.num_machines + 1;
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_workers = -2;
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_workers = config.num_machines;
  EXPECT_TRUE(config.Validate().ok());

  // Socket paths live in sun_path (~108 bytes); a directory that cannot
  // hold "<dir>/worker-<m>.sock" is rejected up front.
  config = SmallConfig();
  config.transport.kind = TransportKind::kSocket;
  config.transport.socket_dir = "/tmp/" + std::string(120, 'p');
  EXPECT_FALSE(config.Validate().ok());
  config.transport.socket_dir = "/tmp/short";
  EXPECT_TRUE(config.Validate().ok());

  // The in-process transport ignores socket tuning but still rejects a
  // nonsensical worker count (the config is wrong, whatever the transport).
  config = SmallConfig();
  config.transport.kind = TransportKind::kInProcess;
  config.transport.socket_workers = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(Cluster, CreateRejectsBadConfig) {
  ClusterConfig config;
  config.num_machines = -1;
  EXPECT_FALSE(Cluster::Create(config).ok());
}

TEST(Cluster, OwnerIsRoundRobin) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->OwnerOf(0), 0);
  EXPECT_EQ((*cluster)->OwnerOf(1), 1);
  EXPECT_EQ((*cluster)->OwnerOf(4), 0);
  EXPECT_EQ((*cluster)->OwnerOf(7), 3);
}

TEST(Cluster, ChargeComputeAffectsMakespan) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeCompute(2, 1.5);
  (*cluster)->ChargeCompute(1, 0.5);
  EXPECT_DOUBLE_EQ((*cluster)->MachineComputeSeconds(2), 1.5);
  EXPECT_DOUBLE_EQ((*cluster)->VirtualMakespanSeconds(), 1.5)
      << "makespan is the busiest machine";
}

TEST(Cluster, BroadcastLedgerAndDriverTime) {
  ClusterConfig config = SmallConfig();
  config.network_latency_seconds = 0.0;
  config.network_bandwidth_bytes_per_second = 1000.0;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeBroadcast(500);
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_bytes, 500 * 4) << "4 machines each receive 500B";
  EXPECT_EQ(snap.broadcast_events, 1);
  EXPECT_DOUBLE_EQ((*cluster)->DriverSeconds(), 0.5);
}

TEST(Cluster, CollectLedgerIncludesProcessingCost) {
  ClusterConfig config = SmallConfig();
  config.network_latency_seconds = 0.0;
  config.network_bandwidth_bytes_per_second = 1000.0;
  config.driver_seconds_per_byte = 0.001;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeCollect(100);
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_bytes, 100);
  EXPECT_DOUBLE_EQ((*cluster)->DriverSeconds(), 0.1 + 0.1);
}

TEST(Cluster, ShuffleSpreadsAcrossMachines) {
  ClusterConfig config = SmallConfig();
  config.network_latency_seconds = 0.0;
  config.network_bandwidth_bytes_per_second = 1000.0;
  auto cluster = Cluster::Create(config);
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeShuffle(4000);
  EXPECT_EQ((*cluster)->comm().Snapshot().shuffle_bytes, 4000);
  // Each of the 4 machines transfers 1000 bytes in parallel: 1 second each.
  EXPECT_DOUBLE_EQ((*cluster)->MachineComputeSeconds(0), 1.0);
  EXPECT_DOUBLE_EQ((*cluster)->VirtualMakespanSeconds(), 1.0);
}

TEST(Cluster, ResetVirtualTimeKeepsLedger) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  (*cluster)->ChargeCompute(0, 2.0);
  (*cluster)->ChargeCollect(100);
  (*cluster)->ResetVirtualTime();
  EXPECT_DOUBLE_EQ((*cluster)->VirtualMakespanSeconds(), 0.0);
  EXPECT_EQ((*cluster)->comm().Snapshot().collect_bytes, 100)
      << "the communication ledger is not part of virtual time";
}

TEST(Cluster, WorkerRegistryValidatesAttachment) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->num_attached_workers(), 0);
  auto endpoint = MakeInProcessEndpoint(std::make_shared<Worker>(0));
  EXPECT_TRUE((*cluster)->AttachEndpoint(0, endpoint).ok());
  EXPECT_EQ((*cluster)->num_attached_workers(), 1);
  EXPECT_EQ((*cluster)->EndpointOn(0), endpoint);
  EXPECT_EQ((*cluster)->EndpointOn(1), nullptr);
  const auto other = std::make_shared<testing::ScriptedEndpoint>(0);
  EXPECT_EQ((*cluster)->AttachEndpoint(0, other).code(),
            StatusCode::kFailedPrecondition)
      << "one endpoint per machine";
  EXPECT_EQ((*cluster)->AttachEndpoint(4, endpoint).code(),
            StatusCode::kInvalidArgument)
      << "machine index out of range";
  EXPECT_EQ((*cluster)->AttachEndpoint(1, nullptr).code(),
            StatusCode::kInvalidArgument);
  (*cluster)->DetachWorkers();
  EXPECT_EQ((*cluster)->num_attached_workers(), 0);
}

TEST(Cluster, RoutingRequiresWorkers) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->BroadcastFactors(FactorDelta{}).code(),
            StatusCode::kFailedPrecondition);
  CollectErrorsResponse response;
  EXPECT_EQ((*cluster)
                ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                            &response)
                .code(),
            StatusCode::kFailedPrecondition);
  QueryResponse answer;
  EXPECT_EQ((*cluster)->QueryWorker(0, QueryRequest{}, &answer).code(),
            StatusCode::kUnavailable)
      << "a query names one machine; an absent one is a failover case";
}

TEST(Cluster, BroadcastChargesPerMachineAndDeliversToAll) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  const auto endpoints = testing::AttachScripted(**cluster, {0, 2});
  ASSERT_TRUE((*cluster)->BroadcastFactors(testing::SizedBroadcast(96)).ok());
  for (const auto& endpoint : endpoints) {
    EXPECT_EQ(endpoint->deliveries(MessageKind::kBroadcast), 1);
  }
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.broadcast_bytes, 96 * 4)
      << "a broadcast is priced for every machine of the cluster";
  EXPECT_EQ(snap.broadcast_events, 1);
}

TEST(Cluster, CollectSumsWorkerBytesIntoOneEvent) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  const auto endpoints = testing::AttachScripted(**cluster, {0, 1});
  endpoints[0]->collect_bytes = 30;
  endpoints[1]->collect_bytes = 12;
  CollectErrorsRequest request;
  request.rows = 3;
  CollectErrorsResponse response;
  ASSERT_TRUE(
      (*cluster)->RunColumn(RunUpdateColumn{}, request, &response).ok());
  const CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.collect_bytes, 42);
  EXPECT_EQ(snap.collect_events, 1);
  // Machine m answers m + 1 per row; the driver sees the sum.
  EXPECT_EQ(response.totals0, (std::vector<std::int64_t>{3, 3, 3}));
  EXPECT_EQ(response.totals1, (std::vector<std::int64_t>{3, 3, 3}));
  for (const auto& endpoint : endpoints) {
    EXPECT_EQ(endpoint->log(),
              (std::vector<MessageKind>{MessageKind::kDispatch,
                                        MessageKind::kCollect}))
        << "each machine runs its dispatch, then its collect";
  }
}

TEST(Cluster, DispatchSurfacesWorkerErrors) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  const auto endpoints = testing::AttachScripted(**cluster, {0, 1});
  endpoints[1]->Script(MessageKind::kDispatch, {Status::Internal("boom")});
  CollectErrorsResponse response;
  const Status status = (*cluster)->RunColumn(
      RunUpdateColumn{}, CollectErrorsRequest{}, &response);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(Cluster, HandlerCpuIsChargedToTheMachineClock) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  const auto endpoints = testing::AttachScripted(**cluster, {1});
  endpoints[0]->seconds_per_call = 0.25;
  ASSERT_TRUE((*cluster)->BroadcastFactors(FactorDelta{}).ok());
  CollectErrorsResponse response;
  ASSERT_TRUE((*cluster)
                  ->RunColumn(RunUpdateColumn{}, CollectErrorsRequest{},
                              &response)
                  .ok());
  EXPECT_DOUBLE_EQ((*cluster)->MachineComputeSeconds(1), 0.75)
      << "broadcast, dispatch and collect each report 0.25 s";
  EXPECT_DOUBLE_EQ((*cluster)->MachineComputeSeconds(0), 0.0);
}

TEST(Cluster, QueryChargesOneRoundTripOnSuccessOnly) {
  auto cluster = Cluster::Create(SmallConfig());
  ASSERT_TRUE(cluster.ok());
  const auto endpoints = testing::AttachScripted(**cluster, {2});
  endpoints[0]->Script(MessageKind::kCollect,
                       {Status::OK(), Status::Internal("bad query")});
  QueryRequest request;
  request.id = 7;
  QueryResponse response;
  ASSERT_TRUE((*cluster)->QueryWorker(2, request, &response).ok());
  EXPECT_EQ(response.id, 7u);
  CommSnapshot snap = (*cluster)->comm().Snapshot();
  EXPECT_EQ(snap.query_events, 1);
  EXPECT_EQ(snap.query_bytes, request.WireBytes() + response.WireBytes());

  EXPECT_EQ((*cluster)->QueryWorker(2, request, &response).code(),
            StatusCode::kInternal);
  EXPECT_EQ((*cluster)->comm().Snapshot().query_events, 1)
      << "a failed query charges nothing";
  EXPECT_EQ((*cluster)->QueryWorker(4, request, &response).code(),
            StatusCode::kInvalidArgument);
}

TEST(CommStats, SnapshotAndReset) {
  CommStats stats;
  stats.RecordShuffle(10);
  stats.RecordBroadcast(20);
  stats.RecordCollect(30);
  stats.RecordCollect(5);
  CommSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.shuffle_bytes, 10);
  EXPECT_EQ(snap.broadcast_bytes, 20);
  EXPECT_EQ(snap.collect_bytes, 35);
  EXPECT_EQ(snap.collect_events, 2);
  EXPECT_EQ(snap.TotalBytes(), 65);
  EXPECT_FALSE(snap.ToString().empty());
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().TotalBytes(), 0);
}

}  // namespace
}  // namespace dbtf
