#include "dist/cluster.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/timer.h"

namespace dbtf {

Status ClusterConfig::Validate() const {
  if (num_machines < 1) {
    return Status::InvalidArgument("num_machines must be >= 1");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  // Each cost parameter must be a *finite* number in range: NaN compares
  // false against every bound, so without the isfinite checks a NaN (or
  // infinite) bandwidth or per-byte cost would slip through and poison every
  // TransferSeconds-derived virtual-clock charge downstream.
  if (!std::isfinite(network_bandwidth_bytes_per_second) ||
      network_bandwidth_bytes_per_second <= 0.0) {
    return Status::InvalidArgument(
        "network bandwidth must be positive and finite");
  }
  if (!std::isfinite(network_latency_seconds) ||
      network_latency_seconds < 0.0 ||
      !std::isfinite(driver_seconds_per_byte) ||
      driver_seconds_per_byte < 0.0) {
    return Status::InvalidArgument(
        "network costs must be non-negative and finite");
  }
  DBTF_RETURN_IF_ERROR(retry.Validate());
  DBTF_RETURN_IF_ERROR(transport.Validate(num_machines));
  return fault_plan.Validate(num_machines);
}

Result<std::unique_ptr<Cluster>> Cluster::Create(const ClusterConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<Cluster>(new Cluster(config));
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      placement_(config.placement ? config.placement : DefaultPlacement()),
      dead_(static_cast<std::size_t>(config.num_machines), false),
      machine_seconds_(static_cast<std::size_t>(config.num_machines), 0.0) {
  int threads = config_.num_threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads == 0) threads = 1;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.fault_plan);
  }
  mailboxes_.reserve(static_cast<std::size_t>(config_.num_machines));
  for (int m = 0; m < config_.num_machines; ++m) {
    mailboxes_.push_back(std::make_unique<Mailbox>(pool_.get()));
  }
}

void Cluster::RunTasks(std::int64_t n,
                       const std::function<void(std::int64_t)>& fn) {
  pool_->ParallelFor(n, [this, &fn](std::int64_t t) {
    ThreadCpuTimer timer;
    fn(t);
    ChargeCompute(OwnerOf(t), timer.ElapsedSeconds());
  });
}

Status Cluster::AttachWorker(int machine, Worker* worker) {
  return AttachWorkerImpl(machine, worker, nullptr, nullptr);
}

Status Cluster::AttachWorker(int machine, std::shared_ptr<Worker> worker) {
  Worker* raw = worker.get();
  return AttachWorkerImpl(machine, raw, std::move(worker), nullptr);
}

Status Cluster::AttachEndpoint(int machine,
                               std::shared_ptr<WorkerEndpoint> endpoint) {
  if (endpoint == nullptr) {
    return Status::InvalidArgument("cannot attach a null endpoint");
  }
  // An endpoint fronting an in-process worker also serves the legacy
  // WorkerFn routing; a remote endpoint leaves `worker` null and only the
  // typed routing methods can reach it.
  Worker* worker = endpoint->local_worker();
  return AttachWorkerImpl(machine, worker, nullptr, std::move(endpoint));
}

Status Cluster::AttachWorkerImpl(int machine, Worker* worker,
                                 std::shared_ptr<Worker> owned,
                                 std::shared_ptr<WorkerEndpoint> endpoint) {
  if (machine < 0 || machine >= config_.num_machines) {
    return Status::InvalidArgument("machine index out of range");
  }
  if (worker == nullptr && endpoint == nullptr) {
    return Status::InvalidArgument("cannot attach a null worker");
  }
  MutexLock lock(mu_);
  if (dead_[static_cast<std::size_t>(machine)]) {
    return Status::FailedPrecondition(
        "machine " + std::to_string(machine) +
        " is dead; its endpoint cannot be re-attached");
  }
  for (const AttachedWorker& w : workers_) {
    if (w.machine == machine) {
      return Status::FailedPrecondition(
          "a worker is already attached to this machine");
    }
  }
  workers_.push_back(
      AttachedWorker{machine, worker, std::move(owned), std::move(endpoint)});
  return Status::OK();
}

void Cluster::DetachWorkers() {
  MutexLock lock(mu_);
  workers_.clear();
}

int Cluster::num_attached_workers() const {
  MutexLock lock(mu_);
  return static_cast<int>(workers_.size());
}

Worker* Cluster::AttachedWorkerOn(int machine) const {
  MutexLock lock(mu_);
  for (const AttachedWorker& w : workers_) {
    if (w.machine == machine) return w.worker;
  }
  return nullptr;
}

std::shared_ptr<WorkerEndpoint> Cluster::EndpointOn(int machine) const {
  MutexLock lock(mu_);
  for (const AttachedWorker& w : workers_) {
    if (w.machine == machine) return w.endpoint;
  }
  return nullptr;
}

std::vector<Cluster::AttachedWorker> Cluster::WorkerSnapshot() const {
  MutexLock lock(mu_);
  return workers_;
}

namespace {

/// Routing on an empty registry: kUnavailable if machines have died (the
/// driver can recover by re-provisioning after re-attaching nothing — the
/// situation is transient from its point of view), the original
/// kFailedPrecondition otherwise (nothing was ever attached; a usage error).
Status NoWorkersError(const std::vector<int>& dead) {
  if (!dead.empty()) {
    return Status::Unavailable(
        "no workers attached to the cluster after machine loss");
  }
  return Status::FailedPrecondition("no workers attached to the cluster");
}

/// Lifts a combined fan-out status into the future's payload.
Result<Unit> ToUnitResult(const Status& status) {
  if (status.ok()) return Unit{};
  return status;
}

/// Legacy WorkerFn routing against an endpoint that has no in-process
/// worker (socket transport): a usage error, not a transport failure.
Status NoInProcessWorkerError(int machine) {
  return Status::FailedPrecondition(
      "machine " + std::to_string(machine) +
      " has no in-process worker (socket transport); use the typed routing "
      "methods");
}

/// Typed routing against a legacy attach that never produced an endpoint.
Status NoEndpointError(int machine) {
  return Status::FailedPrecondition(
      "machine " + std::to_string(machine) +
      " has no transport endpoint; attach via AttachEndpoint or the "
      "provisioning seam");
}

}  // namespace

/// Shared state of one async broadcast/dispatch fan-out. Each machine's
/// mailbox task writes its own statuses slot; the last task to finish (the
/// remaining counter hitting zero, acq_rel so every slot is visible) picks
/// the combined status and resolves the promise. The snapshot pins
/// cluster-owned workers alive until every delivery has drained.
struct Cluster::RouteOp {
  std::vector<AttachedWorker> workers;
  RouteFn fn;
  std::vector<Status> statuses;
  std::atomic<int> remaining{0};
  Promise<Unit> promise;
};

/// Shared state of one async collect fan-out. The gathers mutate the
/// driver's accumulators, so those mutations are serialized under
/// `reduce_mu_` — the mailbox-parallel equivalent of the old sequential
/// driver-side reduce (int64 sums commute, so the reduce order does not
/// affect the result).
struct Cluster::CollectOp {
  std::vector<AttachedWorker> workers;
  GatherFn gather;
  std::vector<Status> statuses;
  std::atomic<int> remaining{0};
  Promise<Unit> promise;
  Mutex reduce_mu_;
  std::int64_t total_bytes_ DBTF_GUARDED_BY(reduce_mu_) = 0;
};

/// Shared state of one fused dispatch+collect fan-out (AsyncRunColumn). The
/// statuses vector holds the dispatch outcomes in [0, n) and the collect
/// outcomes in [n, 2n), so CombineStatuses surfaces dispatch failures ahead
/// of collect failures of the same severity — the same selection the engine
/// made when it awaited the two futures in that order.
struct Cluster::ColumnOp {
  std::vector<AttachedWorker> workers;
  std::shared_ptr<const RunUpdateColumn> run;
  std::shared_ptr<const CollectErrorsRequest> request;
  CollectErrorsResponse* response = nullptr;
  std::vector<Status> statuses;
  std::atomic<int> remaining{0};
  Promise<Unit> promise;
  Mutex reduce_mu_;
  std::int64_t total_bytes_ DBTF_GUARDED_BY(reduce_mu_) = 0;
};

/// Shared state of one point-to-point query delivery. The target snapshot
/// pins a cluster-owned worker (and its endpoint) alive until the delivery
/// drains, exactly like a fan-out snapshot would.
struct Cluster::QueryOp {
  QueryRequest msg;
  QueryResponse* response = nullptr;
  AttachedWorker target{};
  Promise<Unit> promise;
};

Cluster::RouteFn Cluster::AdaptWorkerFn(const WorkerFn& fn) {
  return [this, fn](const AttachedWorker& w) {
    if (w.worker == nullptr) return NoInProcessWorkerError(w.machine);
    ThreadCpuTimer timer;
    const Status status = fn(*w.worker);
    ChargeCompute(w.machine, timer.ElapsedSeconds());
    return status;
  };
}

Future<Unit> Cluster::AsyncBroadcastToWorkers(std::int64_t wire_bytes,
                                              const WorkerFn& deliver) {
  // Lemma 7 charging happens at enqueue, exactly once per broadcast, whether
  // or not any delivery later fails (the bytes left the driver either way).
  ChargeBroadcast(wire_bytes);
  return AsyncRouteToWorkers(MessageKind::kBroadcast, AdaptWorkerFn(deliver));
}

Future<Unit> Cluster::AsyncDispatchToWorkers(const WorkerFn& fn) {
  return AsyncRouteToWorkers(MessageKind::kDispatch, AdaptWorkerFn(fn));
}

Future<Unit> Cluster::AsyncBroadcastFactors(FactorDelta msg) {
  // The op owns the payload: every machine's delivery reads the same const
  // message, and the last one to drain releases it.
  auto shared = std::make_shared<const FactorDelta>(std::move(msg));
  ChargeBroadcast(shared->WireBytes());
  return AsyncRouteToWorkers(
      MessageKind::kBroadcast, [this, shared](const AttachedWorker& w) {
        if (w.endpoint == nullptr) return NoEndpointError(w.machine);
        double seconds = 0.0;
        const Status status = w.endpoint->Deliver(*shared, &seconds);
        ChargeCompute(w.machine, seconds);
        return status;
      });
}

Future<Unit> Cluster::AsyncDispatchColumn(RunUpdateColumn msg) {
  auto shared = std::make_shared<const RunUpdateColumn>(std::move(msg));
  return AsyncRouteToWorkers(
      MessageKind::kDispatch, [this, shared](const AttachedWorker& w) {
        if (w.endpoint == nullptr) return NoEndpointError(w.machine);
        double seconds = 0.0;
        const Status status = w.endpoint->Deliver(*shared, &seconds);
        ChargeCompute(w.machine, seconds);
        return status;
      });
}

Future<Unit> Cluster::AsyncCollectErrors(const CollectErrorsRequest& msg,
                                         CollectErrorsResponse* response) {
  auto shared = std::make_shared<const CollectErrorsRequest>(msg);
  return AsyncGatherFromWorkers(
      [this, shared, response](const AttachedWorker& w,
                               Mutex& reduce_mu) -> Result<std::int64_t> {
        if (w.endpoint == nullptr) return NoEndpointError(w.machine);
        // The endpoint call runs outside the reduce lock — collects from
        // different machines overlap; only the merge is serialized.
        CollectErrorsResponse local;
        double seconds = 0.0;
        const Status status = w.endpoint->Collect(*shared, &local, &seconds);
        ChargeCompute(w.machine, seconds);
        if (!status.ok()) return status;
        MutexLock lock(reduce_mu);
        response->MergeFrom(local);
        return local.wire_bytes;
      });
}

Future<Unit> Cluster::AsyncRunColumn(RunUpdateColumn run,
                                     const CollectErrorsRequest& req,
                                     CollectErrorsResponse* response) {
  auto op = std::make_shared<ColumnOp>();
  op->workers = WorkerSnapshot();
  if (op->workers.empty()) {
    op->promise.Set(NoWorkersError(DeadMachines()));
    return op->promise.future();
  }
  op->run = std::make_shared<const RunUpdateColumn>(std::move(run));
  op->request = std::make_shared<const CollectErrorsRequest>(req);
  op->response = response;
  const std::size_t n = op->workers.size();
  op->statuses.assign(2 * n, Status::OK());
  op->remaining.store(static_cast<int>(2 * n), std::memory_order_relaxed);
  Future<Unit> future = op->promise.future();

  const auto finish_one = [this](const std::shared_ptr<ColumnOp>& op) {
    if (op->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    const std::size_t n = op->workers.size();
    bool collected = true;
    for (std::size_t i = n; i < 2 * n; ++i) {
      collected = collected && op->statuses[i].ok();
    }
    if (collected) {
      // One collect event for the whole fan-out (Lemma 7), charged only
      // when every machine's collect succeeded — independent of the
      // dispatch outcomes, exactly as with separate fan-outs.
      MutexLock lock(op->reduce_mu_);
      ChargeCollect(op->total_bytes_);
    }
    op->promise.Set(ToUnitResult(CombineStatuses(op->statuses)));
  };

  for (std::size_t i = 0; i < n; ++i) {
    const int machine = op->workers[i].machine;
    Mailbox& mailbox = *mailboxes_[static_cast<std::size_t>(machine)];
    // Dispatch first, collect second, back-to-back on the machine's serial
    // mailbox: per-(machine, kind) injector counters advance exactly as
    // they did when the engine enqueued two separate fan-outs.
    mailbox.Post([this, op, i, finish_one] {
      const AttachedWorker& w = op->workers[i];
      op->statuses[i] =
          DeliverWithRetry(w.machine, MessageKind::kDispatch, [this, op, &w]() {
            if (w.endpoint == nullptr) return NoEndpointError(w.machine);
            double seconds = 0.0;
            const Status status = w.endpoint->Deliver(*op->run, &seconds);
            ChargeCompute(w.machine, seconds);
            return status;
          });
      finish_one(op);
    });
    mailbox.Post([this, op, i, n, finish_one] {
      const AttachedWorker& w = op->workers[i];
      op->statuses[n + i] =
          DeliverWithRetry(w.machine, MessageKind::kCollect, [this, op, &w]() {
            if (w.endpoint == nullptr) return NoEndpointError(w.machine);
            CollectErrorsResponse local;
            double seconds = 0.0;
            const Status status =
                w.endpoint->Collect(*op->request, &local, &seconds);
            ChargeCompute(w.machine, seconds);
            if (!status.ok()) return status;
            MutexLock lock(op->reduce_mu_);
            op->response->MergeFrom(local);
            op->total_bytes_ += local.wire_bytes;
            return Status::OK();
          });
      finish_one(op);
    });
  }
  return future;
}

Future<Unit> Cluster::AsyncQueryWorker(int machine, QueryRequest msg,
                                       QueryResponse* response) {
  auto op = std::make_shared<QueryOp>();
  op->msg = std::move(msg);
  op->response = response;
  Future<Unit> future = op->promise.future();
  if (machine < 0 || machine >= config_.num_machines) {
    op->promise.Set(Status::InvalidArgument("machine index out of range"));
    return future;
  }
  // Pin the target via a registry snapshot, like the fan-out paths: a
  // concurrent detach cannot free the worker under the delivery. A dead
  // machine is absent from the registry, so it falls out as kUnavailable
  // here — the same code an injected crash surfaces mid-delivery.
  bool found = false;
  for (AttachedWorker& w : WorkerSnapshot()) {
    if (w.machine == machine) {
      op->target = std::move(w);
      found = true;
      break;
    }
  }
  if (!found) {
    op->promise.Set(Status::Unavailable(
        "machine " + std::to_string(machine) +
        " has no attached endpoint (lost or never attached)"));
    return future;
  }
  // Queries share the collect slot of the injector's per-(machine, kind)
  // counters: both are worker->driver response traffic, and reusing the
  // slot keeps checkpointed counter layouts (machine * 3 + kind) stable.
  mailboxes_[static_cast<std::size_t>(machine)]->Post([this, op] {
    const AttachedWorker& w = op->target;
    const Status status =
        DeliverWithRetry(w.machine, MessageKind::kCollect, [this, op, &w]() {
          if (w.endpoint == nullptr) return NoEndpointError(w.machine);
          double seconds = 0.0;
          const Status s = w.endpoint->Query(op->msg, op->response, &seconds);
          ChargeCompute(w.machine, seconds);
          return s;
        });
    if (status.ok()) {
      // One query event for the round trip, charged only on success — a
      // failed query charges nothing, like a failed collect.
      ChargeQuery(op->msg.WireBytes() + op->response->WireBytes());
    }
    op->promise.Set(ToUnitResult(status));
  });
  return future;
}

Future<Unit> Cluster::AsyncStorePartition(StorePartitionRequest msg) {
  Promise<Unit> promise;
  Future<Unit> future = promise.future();
  const int owner = OwnerOf(msg.index);
  std::shared_ptr<WorkerEndpoint> endpoint = EndpointOn(owner);
  if (endpoint == nullptr) {
    promise.Set(Status::FailedPrecondition(
        "no worker endpoint attached to the partition's machine"));
    return future;
  }
  // The task owns the request and pins the endpoint, like a routing
  // snapshot; std::function needs a copyable callable, hence the shared_ptr.
  auto request = std::make_shared<StorePartitionRequest>(std::move(msg));
  mailboxes_[static_cast<std::size_t>(owner)]->Post(
      [promise, endpoint = std::move(endpoint), request]() mutable {
        promise.Set(
            ToUnitResult(endpoint->Store(std::move(*request), nullptr)));
      });
  return future;
}

Status Cluster::QueryWorker(int machine, QueryRequest msg,
                            QueryResponse* response) {
  return AsyncQueryWorker(machine, std::move(msg), response).Get().status();
}

Status Cluster::RunColumn(RunUpdateColumn run, const CollectErrorsRequest& req,
                          CollectErrorsResponse* response) {
  return AsyncRunColumn(std::move(run), req, response).Get().status();
}

Status Cluster::BroadcastToWorkers(std::int64_t wire_bytes,
                                   const WorkerFn& deliver) {
  return AsyncBroadcastToWorkers(wire_bytes, deliver).Get().status();
}

Status Cluster::DispatchToWorkers(const WorkerFn& fn) {
  return AsyncDispatchToWorkers(fn).Get().status();
}

Status Cluster::CollectFromWorkers(const WorkerGatherFn& gather) {
  return AsyncCollectFromWorkers(gather).Get().status();
}

Status Cluster::BroadcastFactors(FactorDelta msg) {
  return AsyncBroadcastFactors(std::move(msg)).Get().status();
}

Status Cluster::DispatchColumn(RunUpdateColumn msg) {
  return AsyncDispatchColumn(std::move(msg)).Get().status();
}

Status Cluster::CollectErrors(const CollectErrorsRequest& msg,
                              CollectErrorsResponse* response) {
  return AsyncCollectErrors(msg, response).Get().status();
}

Status Cluster::CombineStatuses(const std::vector<Status>& statuses) {
  for (const Status& status : statuses) {
    if (!status.ok() && !IsRetryable(status.code())) return status;
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Future<Unit> Cluster::AsyncRouteToWorkers(MessageKind kind, RouteFn fn) {
  auto op = std::make_shared<RouteOp>();
  op->workers = WorkerSnapshot();
  if (op->workers.empty()) {
    op->promise.Set(NoWorkersError(DeadMachines()));
    return op->promise.future();
  }
  op->fn = std::move(fn);
  op->statuses.assign(op->workers.size(), Status::OK());
  op->remaining.store(static_cast<int>(op->workers.size()),
                      std::memory_order_relaxed);
  // Take the future before posting: the last delivery may resolve (and the
  // caller may drop) the op while this loop is still running.
  Future<Unit> future = op->promise.future();
  for (std::size_t i = 0; i < op->workers.size(); ++i) {
    const int machine = op->workers[i].machine;
    mailboxes_[static_cast<std::size_t>(machine)]->Post([this, op, kind, i] {
      const AttachedWorker& w = op->workers[i];
      op->statuses[i] =
          DeliverWithRetry(w.machine, kind, [op, &w]() { return op->fn(w); });
      if (op->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        op->promise.Set(ToUnitResult(CombineStatuses(op->statuses)));
      }
    });
  }
  return future;
}

Future<Unit> Cluster::AsyncCollectFromWorkers(const WorkerGatherFn& gather) {
  // The legacy gather both reads the worker and mutates the driver's
  // accumulators, so the whole callback runs under the reduce lock — the
  // exact behavior of the old sequential driver-side reduce.
  return AsyncGatherFromWorkers(
      [gather](const AttachedWorker& w,
               Mutex& reduce_mu) -> Result<std::int64_t> {
        if (w.worker == nullptr) return NoInProcessWorkerError(w.machine);
        MutexLock lock(reduce_mu);
        return gather(*w.worker);
      });
}

Future<Unit> Cluster::AsyncGatherFromWorkers(GatherFn gather) {
  auto op = std::make_shared<CollectOp>();
  op->workers = WorkerSnapshot();
  if (op->workers.empty()) {
    op->promise.Set(NoWorkersError(DeadMachines()));
    return op->promise.future();
  }
  op->gather = std::move(gather);
  op->statuses.assign(op->workers.size(), Status::OK());
  op->remaining.store(static_cast<int>(op->workers.size()),
                      std::memory_order_relaxed);
  Future<Unit> future = op->promise.future();
  for (std::size_t i = 0; i < op->workers.size(); ++i) {
    const int machine = op->workers[i].machine;
    mailboxes_[static_cast<std::size_t>(machine)]->Post([this, op, i] {
      const AttachedWorker& w = op->workers[i];
      op->statuses[i] =
          DeliverWithRetry(w.machine, MessageKind::kCollect, [op, &w]() {
            // The gather only credits the byte total on success, so a
            // retried gather never double-counts.
            const Result<std::int64_t> bytes = op->gather(w, op->reduce_mu_);
            if (!bytes.ok()) return bytes.status();
            MutexLock lock(op->reduce_mu_);
            op->total_bytes_ += *bytes;
            return Status::OK();
          });
      if (op->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const Status combined = CombineStatuses(op->statuses);
        if (combined.ok()) {
          // One collect event for the whole fan-out (Lemma 7), charged only
          // when every gather succeeded — a failed collect charges nothing,
          // exactly like the old sequential reduce's early return.
          MutexLock lock(op->reduce_mu_);
          ChargeCollect(op->total_bytes_);
        }
        op->promise.Set(ToUnitResult(combined));
      }
    });
  }
  return future;
}

Status Cluster::DeliverWithRetry(int machine, MessageKind kind,
                                 const std::function<Status()>& attempt) {
  const RetryPolicy& retry = config_.retry;
  double backoff = retry.backoff_seconds;
  Status last = Status::OK();
  for (int a = 1; a <= retry.max_attempts; ++a) {
    if (a > 1) {
      // Exponential backoff before every redelivery, charged as virtual
      // driver time — the driver sits on the retry, the cluster does not
      // wall-clock sleep.
      ChargeDriverSeconds(backoff);
      recovery_.RecordRetry(backoff);
      backoff *= retry.backoff_multiplier;
    }
    Status status = Status::OK();
    if (injector_ != nullptr) {
      const FaultInjector::Outcome outcome = injector_->OnDelivery(machine, kind);
      if (outcome.machine_lost) {
        MarkMachineLost(machine);
        recovery_.RecordFailedDelivery();
        return outcome.status;  // permanent: retrying this endpoint is futile
      }
      if (outcome.stall_seconds > 0.0) {
        // A stall costs virtual time whether or not the delivery survives it.
        ChargeCompute(machine, outcome.stall_seconds);
        recovery_.RecordStall(outcome.stall_seconds);
        if (outcome.stall_seconds > retry.message_deadline_seconds) {
          status = Status::DeadlineExceeded(
              "delivery to machine " + std::to_string(machine) +
              " stalled past the message deadline");
        }
      }
      if (status.ok()) status = outcome.status;
    }
    if (status.ok()) status = attempt();
    if (status.code() == StatusCode::kIoError) {
      // A transport failure (dead worker process, closed socket, corrupt
      // frame) is indistinguishable from a crashed machine: mark it lost so
      // routing skips it and the driver's recovery path re-provisions its
      // partitions, exactly as for an injected crash.
      MarkMachineLost(machine);
      recovery_.RecordFailedDelivery();
      return Status::Unavailable("machine " + std::to_string(machine) +
                                 " lost: " + status.ToString());
    }
    if (status.ok() || !IsRetryable(status.code())) return status;
    recovery_.RecordFailedDelivery();
    last = status;
  }
  return Status::Unavailable(
      "retry budget exhausted after " + std::to_string(retry.max_attempts) +
      " attempts (" + last.ToString() + ")");
}

std::vector<int> Cluster::DeadMachines() const {
  MutexLock lock(mu_);
  std::vector<int> dead;
  for (int m = 0; m < config_.num_machines; ++m) {
    if (dead_[static_cast<std::size_t>(m)]) dead.push_back(m);
  }
  return dead;
}

bool Cluster::DetachDeadMachine(int machine) {
  bool newly_dead = false;
  MutexLock lock(mu_);
  if (!dead_[static_cast<std::size_t>(machine)]) {
    dead_[static_cast<std::size_t>(machine)] = true;
    newly_dead = true;
  }
  // Detach the endpoint. Routing snapshots taken before this keep the
  // worker alive until their deliveries drain; new snapshots skip it.
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if (it->machine == machine) {
      workers_.erase(it);
      break;
    }
  }
  return newly_dead;
}

void Cluster::MarkMachineLost(int machine) {
  if (machine < 0 || machine >= config_.num_machines) return;
  if (DetachDeadMachine(machine)) {
    recovery_.RecordMachineLost();
    DBTF_LOG(kWarning, "machine %d lost permanently; endpoint detached",
             machine);
  }
}

void Cluster::RestoreDeadMachine(int machine) {
  if (machine < 0 || machine >= config_.num_machines) return;
  // Restoring a checkpointed loss is not a new loss: the interrupted run
  // already charged RecordMachineLost and the checkpoint's RecoveryStats
  // snapshot carries it, so only the routing state changes here.
  if (DetachDeadMachine(machine)) {
    DBTF_LOG(kInfo, "machine %d restored as lost; endpoint detached",
             machine);
  }
}

std::vector<std::int64_t> Cluster::FaultDeliveryCounters() const {
  if (injector_ == nullptr) return {};
  return injector_->DeliveryCounters();
}

Status Cluster::RestoreFaultDeliveryState(
    const std::vector<std::int64_t>& deliveries,
    const std::vector<int>& dead_machines) {
  if (injector_ == nullptr) {
    if (!deliveries.empty()) {
      return Status::FailedPrecondition(
          "checkpoint carries fault-injector counters but the cluster has "
          "no fault plan");
    }
    return Status::OK();
  }
  injector_->RestoreDeliveryState(deliveries, dead_machines);
  return Status::OK();
}

Status Cluster::RestoreVirtualClocks(
    const std::vector<double>& machine_seconds, double driver_seconds) {
  MutexLock lock(mu_);
  if (machine_seconds.size() != machine_seconds_.size()) {
    return Status::FailedPrecondition(
        "checkpointed machine clock count does not match the cluster");
  }
  machine_seconds_ = machine_seconds;
  driver_seconds_ = driver_seconds;
  return Status::OK();
}

void Cluster::ChargeReprovision(int machine, std::int64_t bytes) {
  // The rebuilt partition crosses the wire again: ledger it as a shuffle
  // (the same event class as the original partitioning shuffle), and charge
  // the transfer to both ends — the driver ships, the survivor receives.
  comm_.RecordShuffle(bytes);
  const double seconds = TransferSeconds(bytes);
  recovery_.RecordReprovision(bytes, seconds);
  ChargeCompute(machine, seconds);
  ChargeDriverSeconds(seconds);
}

void Cluster::ChargeDriverSeconds(double seconds) {
  MutexLock lock(mu_);
  driver_seconds_ += seconds;
}

void Cluster::ChargeCompute(int machine, double seconds) {
  DBTF_DCHECK_LE(0, machine);
  DBTF_DCHECK_LT(machine, config_.num_machines);
  MutexLock lock(mu_);
  machine_seconds_[static_cast<std::size_t>(machine)] += seconds;
}

void Cluster::ChargeBroadcast(std::int64_t bytes_per_machine) {
  comm_.RecordBroadcast(bytes_per_machine * config_.num_machines);
  const double seconds = TransferSeconds(bytes_per_machine);
  MutexLock lock(mu_);
  // Broadcasts to different machines proceed in parallel; the driver pays
  // one transfer worth of serialized time.
  driver_seconds_ += seconds;
}

void Cluster::ChargeCollect(std::int64_t total_bytes) {
  comm_.RecordCollect(total_bytes);
  MutexLock lock(mu_);
  driver_seconds_ += TransferSeconds(total_bytes) +
                     static_cast<double>(total_bytes) *
                         config_.driver_seconds_per_byte;
}

void Cluster::ChargeQuery(std::int64_t total_bytes) {
  comm_.RecordQuery(total_bytes);
  MutexLock lock(mu_);
  driver_seconds_ += TransferSeconds(total_bytes);
}

void Cluster::ChargeShuffle(std::int64_t total_bytes) {
  comm_.RecordShuffle(total_bytes);
  MutexLock lock(mu_);
  // The shuffle is spread over all machine pairs; machines pay in parallel.
  const double seconds =
      TransferSeconds(total_bytes / std::max(1, config_.num_machines));
  for (double& m : machine_seconds_) m += seconds;
}

double Cluster::VirtualMakespanSeconds() const {
  MutexLock lock(mu_);
  double max_machine = 0.0;
  for (const double m : machine_seconds_) max_machine = std::max(max_machine, m);
  return max_machine + driver_seconds_;
}

double Cluster::MachineComputeSeconds(int machine) const {
  DBTF_DCHECK_LE(0, machine);
  DBTF_DCHECK_LT(machine, config_.num_machines);
  MutexLock lock(mu_);
  return machine_seconds_[static_cast<std::size_t>(machine)];
}

double Cluster::DriverSeconds() const {
  MutexLock lock(mu_);
  return driver_seconds_;
}

void Cluster::ResetVirtualTime() {
  MutexLock lock(mu_);
  std::fill(machine_seconds_.begin(), machine_seconds_.end(), 0.0);
  driver_seconds_ = 0.0;
}

}  // namespace dbtf
