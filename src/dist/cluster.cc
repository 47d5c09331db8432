#include "dist/cluster.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

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

Status Cluster::AttachEndpoint(int machine,
                               std::shared_ptr<WorkerEndpoint> endpoint) {
  if (machine < 0 || machine >= config_.num_machines) {
    return Status::InvalidArgument("machine index out of range");
  }
  if (endpoint == nullptr) {
    return Status::InvalidArgument("cannot attach a null endpoint");
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
  workers_.push_back(AttachedWorker{machine, std::move(endpoint)});
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

/// Blocks the driver until `count` mailbox tasks have each called
/// CountDown once: the one wait behind every fan-out, query and store. The
/// latch may live on the waiter's stack, because CountDown notifies while
/// still holding the mutex: the waiter cannot see the count reach zero, and
/// return and destroy the latch, before the last CountDown has released it.
/// Everything a task writes before its CountDown is visible after Wait.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}

  void CountDown() {
    MutexLock lock(mu_);
    if (--remaining_ == 0) zero_.notify_all();
  }

  void Wait() {
    MutexLock lock(mu_);
    lock.Wait(zero_, [this] {
      mu_.AssertHeld();
      return remaining_ == 0;
    });
  }

 private:
  Mutex mu_;
  std::condition_variable zero_;
  int remaining_ DBTF_GUARDED_BY(mu_);
};

/// Runs one endpoint call and charges the handler CPU it reports to the
/// machine's virtual clock, whatever the call's outcome.
template <typename Call>
Status ChargedCall(Cluster& cluster, int machine, const Call& call) {
  double seconds = 0.0;
  const Status status = call(&seconds);
  cluster.ChargeCompute(machine, seconds);
  return status;
}

}  // namespace

Result<std::vector<Status>> Cluster::RunFanOut(int rounds,
                                               const DeliverFn& deliver) {
  // The snapshot pins every endpoint alive until its deliveries have run.
  // Each task writes only its own statuses slot; the latch's mutex orders
  // every slot before the wait returns.
  const std::vector<AttachedWorker> workers = WorkerSnapshot();
  if (workers.empty()) return NoWorkersError(DeadMachines());
  const std::size_t n = workers.size();
  const std::size_t total = n * static_cast<std::size_t>(rounds);
  std::vector<Status> statuses(total, Status::OK());
  Latch done(static_cast<int>(total));
  for (std::size_t slot = 0; slot < total; ++slot) {
    const AttachedWorker& w = workers[slot % n];
    mailboxes_[static_cast<std::size_t>(w.machine)]->Post([&, slot] {
      statuses[slot] = deliver(workers[slot % n], static_cast<int>(slot / n));
      done.CountDown();
    });
  }
  done.Wait();
  return statuses;
}

Status Cluster::BroadcastFactors(const FactorDelta& msg) {
  // Lemma 7 charging happens before delivery, exactly once per broadcast,
  // whether or not any delivery later fails (the bytes left the driver
  // either way).
  ChargeBroadcast(msg.WireBytes());
  DBTF_ASSIGN_OR_RETURN(
      const std::vector<Status> statuses,
      RunFanOut(1, [this, &msg](const AttachedWorker& w, int) {
        return DeliverWithRetry(w.machine, MessageKind::kBroadcast, [&] {
          return ChargedCall(*this, w.machine, [&](double* seconds) {
            return w.endpoint->Deliver(msg, seconds);
          });
        });
      }));
  return CombineStatuses(statuses);
}

Status Cluster::RunColumn(const RunUpdateColumn& run,
                          const CollectErrorsRequest& req,
                          CollectErrorsResponse* response) {
  // Round 0 dispatches, round 1 collects, back-to-back on each machine's
  // serial mailbox: per-(machine, kind) injector counters advance exactly as
  // with two separate fan-outs, and CombineStatuses surfaces a dispatch
  // failure ahead of a collect failure of the same severity. Each machine's
  // response lands in its own slot only when its collect succeeded, so a
  // retried collect never double-counts.
  std::vector<CollectErrorsResponse> collected(
      static_cast<std::size_t>(config_.num_machines));
  DBTF_ASSIGN_OR_RETURN(
      const std::vector<Status> statuses,
      RunFanOut(2, [&](const AttachedWorker& w, int round) {
        if (round == 0) {
          return DeliverWithRetry(w.machine, MessageKind::kDispatch, [&] {
            return ChargedCall(*this, w.machine, [&](double* seconds) {
              return w.endpoint->Deliver(run, seconds);
            });
          });
        }
        return DeliverWithRetry(w.machine, MessageKind::kCollect, [&] {
          CollectErrorsResponse local;
          const Status status =
              ChargedCall(*this, w.machine, [&](double* seconds) {
                return w.endpoint->Collect(req, &local, seconds);
              });
          if (status.ok()) {
            collected[static_cast<std::size_t>(w.machine)] = std::move(local);
          }
          return status;
        });
      }));
  // One collect event for the whole fan-out (Lemma 7), charged only when
  // every machine's collect succeeded — independent of the dispatch
  // outcomes. Int64 sums commute, so the merge order is immaterial.
  const auto collects = statuses.begin() +
                        static_cast<std::ptrdiff_t>(statuses.size() / 2);
  if (std::all_of(collects, statuses.end(),
                  [](const Status& s) { return s.ok(); })) {
    std::int64_t bytes = 0;
    for (const CollectErrorsResponse& part : collected) {
      response->MergeFrom(part);
      bytes += part.wire_bytes;
    }
    ChargeCollect(bytes);
  }
  return CombineStatuses(statuses);
}

Status Cluster::QueryWorker(int machine, const QueryRequest& msg,
                            QueryResponse* response) {
  if (machine < 0 || machine >= config_.num_machines) {
    return Status::InvalidArgument("machine index out of range");
  }
  // Pin the target via the registry, like a fan-out snapshot: a concurrent
  // detach cannot free the worker under the delivery. A dead machine is
  // absent from the registry, so it falls out as kUnavailable here — the
  // same code an injected crash surfaces mid-delivery.
  std::shared_ptr<WorkerEndpoint> endpoint = EndpointOn(machine);
  if (endpoint == nullptr) {
    return Status::Unavailable(
        "machine " + std::to_string(machine) +
        " has no attached endpoint (lost or never attached)");
  }
  Status status = Status::OK();
  Latch done(1);
  // Queries share the collect slot of the injector's per-(machine, kind)
  // counters: both are worker->driver response traffic, and reusing the
  // slot keeps checkpointed counter layouts (machine * 3 + kind) stable.
  mailboxes_[static_cast<std::size_t>(machine)]->Post([&] {
    status = DeliverWithRetry(machine, MessageKind::kCollect, [&] {
      return ChargedCall(*this, machine, [&](double* seconds) {
        return endpoint->Query(msg, response, seconds);
      });
    });
    if (status.ok()) {
      // One query event for the round trip, charged only on success.
      ChargeQuery(msg.WireBytes() + response->WireBytes());
    }
    done.CountDown();
  });
  done.Wait();
  return status;
}

Status Cluster::StoreOnOwners(std::vector<StorePartitionRequest> msgs) {
  std::vector<Status> statuses(msgs.size(), Status::OK());
  Latch done(static_cast<int>(msgs.size()));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const int owner = OwnerOf(msgs[i].index);
    std::shared_ptr<WorkerEndpoint> endpoint = EndpointOn(owner);
    if (endpoint == nullptr) {
      statuses[i] = Status::FailedPrecondition(
          "no worker endpoint attached to the partition's machine");
      done.CountDown();
      continue;
    }
    // The task pins the endpoint, like a routing snapshot.
    mailboxes_[static_cast<std::size_t>(owner)]->Post(
        [&, i, endpoint = std::move(endpoint)] {
          statuses[i] = endpoint->Store(std::move(msgs[i]), nullptr);
          done.CountDown();
        });
  }
  done.Wait();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
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
