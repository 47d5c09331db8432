#include "dbtf/session.h"

#include <algorithm>
#include <csignal>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/check.h"
#include "common/kernels/kernels.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/timer.h"
#include "dbtf/engine.h"
#include "dbtf/partition.h"
#include "dist/provision.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace {

/// Slot convention of the session: A = 0, B = 1, C = 2 (FactorRoles doc),
/// with the mode-n unfolding approximated as
///   X(1) ~ A o (C kr B)^T,  X(2) ~ B o (C kr A)^T,  X(3) ~ C o (B kr A)^T.
/// Shared by the update loop and the checkpoint-restore worker rehydration,
/// which must name exactly the roles the interrupted update had broadcast.
struct ModeRoles {
  Mode mode;
  int shape_slot;
  FactorRoles roles;
};

constexpr ModeRoles kModeRoles[3] = {
    {Mode::kOne, 0, {0, 2, 1}},
    {Mode::kTwo, 1, {1, 2, 0}},
    {Mode::kThree, 2, {2, 1, 0}},
};

/// Fingerprint of every configuration field that binds the deterministic
/// trajectory of a run: a checkpoint may only resume under a configuration
/// that reproduces the interrupted run's decisions, virtual time, and fault
/// schedule. Operational fields (checkpoint cadence/retention, resume and
/// crash/halt drills, wall-clock budget, thread count) are deliberately
/// excluded — they may differ between the interrupted and the resumed run.
std::uint64_t FingerprintConfig(const DbtfConfig& config) {
  ByteWriter w;
  w.WriteI64(config.rank);
  w.WriteI64(config.max_iterations);
  w.WriteI64(config.num_initial_sets);
  w.WriteI64(config.num_partitions);
  w.WriteI64(config.cache_group_size);
  w.WriteU8(static_cast<std::uint8_t>(config.init_scheme));
  w.WriteDouble(config.init_density);
  w.WriteU64(config.seed);
  w.WriteI64(config.convergence_epsilon);
  w.WriteU8(config.enable_caching ? 1 : 0);
  w.WriteI64(config.cluster.num_machines);
  w.WriteDouble(config.cluster.network_latency_seconds);
  w.WriteDouble(config.cluster.network_bandwidth_bytes_per_second);
  w.WriteDouble(config.cluster.driver_seconds_per_byte);
  w.WriteString(config.cluster.fault_plan.ToString());
  w.WriteI64(config.cluster.retry.max_attempts);
  w.WriteDouble(config.cluster.retry.backoff_seconds);
  w.WriteDouble(config.cluster.retry.backoff_multiplier);
  w.WriteDouble(config.cluster.retry.message_deadline_seconds);
  // config.cluster.transport is deliberately absent: the transport is an
  // operational choice with no effect on results, so a checkpoint written
  // under --transport=inproc must resume under --transport=socket (and vice
  // versa) without tripping the fingerprint check. config.kernel_backend is
  // absent for the same reason: every backend produces bitwise-identical
  // results (tests/kernels_test.cc proves it), so a checkpoint written under
  // --kernel=portable resumes under --kernel=avx512 and vice versa.
  return Fnv1a64(w.bytes().data(), w.size());
}

/// Content identity of the tensor for checkpoint resume: FNV-1a over the
/// little-endian dims (i64) and every sorted entry's i, j, k (u32), the
/// ByteWriter encoding. The bytes are hashed block by block as they are
/// encoded, never held whole.
std::uint64_t FingerprintTensor(const SparseTensor& x) {
  std::uint8_t block[12 * 512];
  std::size_t used = 0;
  const auto put = [&](std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      block[used++] = static_cast<std::uint8_t>(value >> (8 * b));
    }
  };
  put(static_cast<std::uint64_t>(x.dim_i()), 8);
  put(static_cast<std::uint64_t>(x.dim_j()), 8);
  put(static_cast<std::uint64_t>(x.dim_k()), 8);
  std::uint64_t hash = kFnv1a64Basis;
  for (const Coord& c : x.entries()) {
    if (used + 12 > sizeof(block)) {
      hash = Fnv1a64(block, used, hash);
      used = 0;
    }
    put(c.i, 4);
    put(c.j, 4);
    put(c.k, 4);
  }
  return Fnv1a64(block, used, hash);
}

}  // namespace

void SampleFiberFactors(const SparseTensor& x, std::int64_t rank, Rng* rng,
                        BitMatrix* a, BitMatrix* b, BitMatrix* c) {
  DBTF_CHECK(x.sorted() && x.NumNonZeros() > 0);
  *a = BitMatrix(x.dim_i(), rank);
  *b = BitMatrix(x.dim_j(), rank);
  *c = BitMatrix(x.dim_k(), rank);
  const std::vector<Coord>& entries = x.entries();
  const auto by_i = [](const Coord& l, const Coord& r) { return l.i < r.i; };
  const auto by_j = [](const Coord& l, const Coord& r) { return l.j < r.j; };
  for (std::int64_t r = 0; r < rank; ++r) {
    const Coord seed = entries[static_cast<std::size_t>(
        rng->NextBounded(entries.size()))];
    for (std::int64_t i = 0; i < x.dim_i(); ++i) {
      if (x.Contains(i, seed.j, seed.k)) a->Set(i, r, true);
    }
    const auto slice =
        std::equal_range(entries.begin(), entries.end(), seed, by_i);
    for (auto e = slice.first; e != slice.second; ++e) {
      if (e->k == seed.k) b->Set(e->j, r, true);
    }
    const auto fiber = std::equal_range(slice.first, slice.second, seed, by_j);
    for (auto e = fiber.first; e != fiber.second; ++e) {
      c->Set(e->k, r, true);
    }
  }
}

/// One set of factor matrices being optimized.
struct Session::FactorSet {
  BitMatrix a;
  BitMatrix b;
  BitMatrix c;
};

/// Merged statistics of one full alternating iteration.
struct Session::TripleStats {
  std::int64_t error = 0;          ///< reconstruction error after the C update
  std::int64_t cells_changed = 0;  ///< entries flipped across the 3 updates
  std::int64_t cache_entries = 0;  ///< resident cache entries (all 3 modes)
  std::int64_t cache_bytes = 0;    ///< resident cache bytes (all 3 modes)
};

/// Resumable cursor and accumulators of one Factorize run. Everything a
/// checkpoint persists lives here (or in objects reachable from the
/// CheckpointContext); Factorize is a loop over this state, so a restored
/// RunState re-enters the loop exactly where the interrupted run left it.
struct Session::RunState {
  /// Cursor: the next column to decide is column `next_column` of mode
  /// `mode_index` (0 = A, 1 = B, 2 = C) of iteration `iteration` (updating
  /// initial set `set_index` during the multi-start first iteration).
  /// Checkpoints fire only at column boundaries, so a restored cursor has
  /// next_column in [1, rank]; next_column == rank marks a mode whose last
  /// column completed right before the snapshot — UpdateFactorsAt finalizes
  /// it from the carried statistics without another engine call.
  int iteration = 1;
  int set_index = 0;
  int mode_index = 0;
  std::int64_t next_column = 0;
  std::int64_t columns_done = 0;  ///< across the whole run (cadence unit)

  FactorSet current;           ///< the set under update at the cursor
  bool current_ready = false;  ///< iteration 1: candidate already sampled
  FactorSet best;              ///< best completed initial set (iteration 1)
  std::int64_t best_error = -1;

  UpdateFactorStats update_stats;  ///< carried stats of the in-flight update
  TripleStats iter_stats;  ///< merged stats of this iteration's done modes

  // Result accumulators up to the cursor.
  std::vector<std::int64_t> iteration_errors;
  std::int64_t cells_changed = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_bytes = 0;
  std::int64_t checkpoints_written = 0;
  int resumed_from_iteration = 0;

  /// Ledger attribution bases: what the run had already moved or lost
  /// before this process started counting — the session's one-off shuffle
  /// on a fresh run, the checkpoint's run-attributed snapshots on a resumed
  /// one (recursively correct across chains of resumes).
  CommSnapshot base_comm;
  RecoveryStats base_recovery;
};

/// Checkpoint/crash/halt hook state of one run, fired at every column
/// boundary by the engine's ColumnCompletedFn.
struct Session::CheckpointContext {
  Session* session = nullptr;
  const DbtfConfig* config = nullptr;
  const CheckpointStore* store = nullptr;  ///< null: durable snapshots off
  RunState* state = nullptr;
  const FactorBroadcastState* bcast = nullptr;
  const Rng* rng = nullptr;
  std::uint64_t config_fingerprint = 0;
  CommSnapshot ledger_start;
  RecoveryStats recovery_start;

  /// Whether the per-column hook needs to run at all; when false the engine
  /// is invoked without a hook and behaves exactly as before checkpointing
  /// existed.
  bool Active() const {
    return store != nullptr || config->crash_after_columns > 0 ||
           config->halt_after_columns > 0;
  }

  Status OnColumnCompleted();
};

Status Session::CheckpointContext::OnColumnCompleted() {
  if (store != nullptr) {
    const std::int64_t every = config->checkpoint_every_columns > 0
                                   ? config->checkpoint_every_columns
                                   : config->rank;
    if (state->columns_done % every == 0) {
      // The snapshot records its own write, so a resumed run continues the
      // interrupted run's cumulative count.
      ++state->checkpoints_written;
      DBTF_ASSIGN_OR_RETURN(const std::int64_t sequence,
                            store->Write(session->BuildCheckpoint(*this)));
      DBTF_LOG(kDebug, "checkpoint ckpt-%lld written at column %lld",
               static_cast<long long>(sequence),
               static_cast<long long>(state->columns_done));
    }
  }
  // Drill order matters: any due snapshot above is durable (fsynced and
  // published) before the kill, which is exactly what the kill-and-resume
  // smoke test relies on.
  if (config->crash_after_columns > 0 &&
      state->columns_done >= config->crash_after_columns) {
    (void)std::raise(SIGKILL);
  }
  if (config->halt_after_columns > 0 &&
      state->columns_done >= config->halt_after_columns) {
    return Status::ResourceExhausted("halted by halt_after_columns");
  }
  return Status::OK();
}

Result<std::unique_ptr<Session>> Session::Create(const SparseTensor& x,
                                                 const DbtfConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  if (x.dim_i() < 1 || x.dim_j() < 1 || x.dim_k() < 1) {
    return Status::InvalidArgument("tensor dimensions must be positive");
  }
  if (!x.sorted()) {
    return Status::InvalidArgument(
        "tensor entries must be sorted and deduplicated (SortAndDedup)");
  }

  Timer build;
  std::unique_ptr<Session> session(new Session());
  session->tensor_ = &x;
  session->num_partitions_requested_ = config.num_partitions;
  session->num_machines_ = config.cluster.num_machines;
  DBTF_ASSIGN_OR_RETURN(session->cluster_, Cluster::Create(config.cluster));
  Cluster* cluster = session->cluster_.get();

  // Computed once — Factorize compares it against the fingerprint stored in
  // a snapshot before restoring anything.
  session->tensor_fingerprint_ = FingerprintTensor(x);

  // One cluster-owned worker endpoint per machine; each ends up owning the
  // partitions Cluster::OwnerOf assigns to it.
  DBTF_RETURN_IF_ERROR(ProvisionWorkers(*cluster));

  // One-off partitioning of the three unfoldings (Algorithm 3). A real
  // cluster shuffles every non-zero of each unfolding once (Lemma 6). The
  // driver builds the partitions, moves them onto the owning machines (all
  // machines at once, one unfolding at a time), and keeps no partition data
  // itself.
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    DBTF_ASSIGN_OR_RETURN(
        PartitionedUnfolding unfolding,
        PartitionedUnfolding::Build(x, mode, config.num_partitions));
    const std::size_t slot = static_cast<std::size_t>(mode) - 1;
    session->shapes_[slot] = unfolding.shape();
    session->nparts_[slot] = unfolding.num_partitions();
    DBTF_RETURN_IF_ERROR(StorePartitions(
        *cluster, mode, std::move(unfolding).ReleasePartitions(),
        session->shapes_[slot]));
  }
  cluster->ChargeShuffle(3 * x.NumNonZeros() *
                         static_cast<std::int64_t>(3 * sizeof(std::uint32_t)));

  // Remember the shuffle so every run can report it (and its virtual time)
  // even though the cluster ledger records it only once.
  session->shuffle_snapshot_ = cluster->comm().Snapshot();
  session->shuffle_virtual_seconds_ = cluster->VirtualMakespanSeconds();
  session->build_seconds_ = build.ElapsedSeconds();
  return session;
}

Session::~Session() {
  if (cluster_ != nullptr) cluster_->DetachWorkers();
}

Status Session::RecoverLostWorkers() { return RebuildCoverage(true); }

Status Session::RebuildCoverage(bool charged) {
  std::vector<ReprovisionSpec> specs;
  for (const Mode mode : {Mode::kOne, Mode::kTwo, Mode::kThree}) {
    const std::size_t slot = static_cast<std::size_t>(mode) - 1;
    ReprovisionSpec spec;
    spec.mode = mode;
    spec.shape = shapes_[slot];
    spec.num_partitions = nparts_[slot];
    specs.push_back(spec);
  }
  const UnfoldingRebuilder rebuild =
      [this](Mode mode) -> Result<std::vector<Partition>> {
    DBTF_ASSIGN_OR_RETURN(
        PartitionedUnfolding unfolding,
        PartitionedUnfolding::Build(*tensor_, mode,
                                    num_partitions_requested_));
    return std::move(unfolding).ReleasePartitions();
  };
  return charged ? ReprovisionLostPartitions(*cluster_, specs, rebuild)
                 : RestorePartitionCoverage(*cluster_, specs, rebuild);
}

Status Session::UpdateFactorsAt(RunState* s, const DbtfConfig& config,
                                FactorBroadcastState* bcast,
                                CheckpointContext* ckpt) {
  const RecoverWorkersFn recover = [this]() { return RecoverLostWorkers(); };
  // Operand selection per mode, matching kModeRoles' slot convention. The
  // factor under update never ships; a Khatri-Rao operand ships in full only
  // when it differs from the content the workers kept from the previous
  // update.
  struct ModeOperands {
    BitMatrix FactorSet::*factor;
    BitMatrix FactorSet::*mf;
    BitMatrix FactorSet::*ms;
  };
  static constexpr ModeOperands kOperands[3] = {
      {&FactorSet::a, &FactorSet::c, &FactorSet::b},
      {&FactorSet::b, &FactorSet::c, &FactorSet::a},
      {&FactorSet::c, &FactorSet::b, &FactorSet::a},
  };
  const bool hooked = ckpt != nullptr && ckpt->Active();
  for (; s->mode_index < 3; ++s->mode_index) {
    const std::size_t m = static_cast<std::size_t>(s->mode_index);
    FactorSet& f = s->current;
    UpdateFactorStats stats;
    if (s->next_column == config.rank) {
      // The interrupted run snapshotted right after this mode's last
      // column: the factor content and the carried statistics are final —
      // finalize without an engine call (and without any ledger charge).
      stats = s->update_stats;
    } else {
      FactorUpdateResume resume_storage;
      const FactorUpdateResume* resume = nullptr;
      if (s->next_column > 0) {
        resume_storage.start_column = s->next_column;
        resume_storage.carried = s->update_stats;
        resume = &resume_storage;
      }
      ColumnCompletedFn on_column;
      if (hooked) {
        on_column = [s, ckpt](std::int64_t column,
                              const UpdateFactorStats& so_far) -> Status {
          s->update_stats = so_far;
          s->next_column = column + 1;
          ++s->columns_done;
          return ckpt->OnColumnCompleted();
        };
      }
      DBTF_ASSIGN_OR_RETURN(
          stats,
          RunFactorUpdate(cluster_.get(), kModeRoles[m].mode,
                          shapes_[kModeRoles[m].shape_slot],
                          &(f.*kOperands[m].factor), f.*kOperands[m].mf,
                          f.*kOperands[m].ms, config, recover,
                          kModeRoles[m].roles, bcast, on_column, resume));
    }
    s->iter_stats.cells_changed += stats.cells_changed;
    s->iter_stats.cache_entries += stats.cache_entries;
    s->iter_stats.cache_bytes += stats.cache_bytes;
    if (s->mode_index == 2) s->iter_stats.error = stats.final_error;
    s->update_stats = UpdateFactorStats{};
    s->next_column = 0;
  }
  s->mode_index = 0;
  return Status::OK();
}

CheckpointState Session::BuildCheckpoint(const CheckpointContext& ctx) const {
  const RunState& s = *ctx.state;
  CheckpointState ck;
  ck.config_fingerprint = ctx.config_fingerprint;
  ck.tensor_fingerprint = tensor_fingerprint_;
  ck.iteration = s.iteration;
  ck.set_index = s.set_index;
  ck.mode_index = s.mode_index;
  ck.next_column = s.next_column;
  ck.columns_done = s.columns_done;
  ck.rng_state = ctx.rng->State();
  ck.a = s.current.a;
  ck.b = s.current.b;
  ck.c = s.current.c;
  ck.has_best = s.iteration == 1 && s.best_error >= 0;
  ck.best_error = s.best_error;
  if (ck.has_best) {
    ck.best_a = s.best.a;
    ck.best_b = s.best.b;
    ck.best_c = s.best.c;
  }
  ck.update_cache_entries = s.update_stats.cache_entries;
  ck.update_cache_bytes = s.update_stats.cache_bytes;
  ck.update_cells_changed = s.update_stats.cells_changed;
  ck.update_final_error = s.update_stats.final_error;
  ck.iter_error = s.iter_stats.error;
  ck.iter_cells_changed = s.iter_stats.cells_changed;
  ck.iter_cache_entries = s.iter_stats.cache_entries;
  ck.iter_cache_bytes = s.iter_stats.cache_bytes;
  ck.iteration_errors = s.iteration_errors;
  ck.cells_changed = s.cells_changed;
  ck.cache_entries = s.cache_entries;
  ck.cache_bytes = s.cache_bytes;
  ck.checkpoints_written = s.checkpoints_written;
  for (int slot = 0; slot < 3; ++slot) {
    const FactorBroadcastState::ShadowView view = ctx.bcast->shadow(slot);
    FactorShadowSnapshot& out = ck.shadows[static_cast<std::size_t>(slot)];
    out.initialized = view.initialized;
    if (view.initialized) {
      out.generation = view.generation;
      out.content = *view.content;
    }
  }
  ck.comm =
      cluster_->comm().Snapshot().Since(ctx.ledger_start).Plus(s.base_comm);
  ck.recovery = cluster_->recovery()
                    .Snapshot()
                    .Since(ctx.recovery_start)
                    .Plus(s.base_recovery);
  ck.fault_delivery_counters = cluster_->FaultDeliveryCounters();
  ck.dead_machines = cluster_->DeadMachines();
  ck.machine_seconds.reserve(static_cast<std::size_t>(num_machines_));
  for (int m = 0; m < num_machines_; ++m) {
    ck.machine_seconds.push_back(cluster_->MachineComputeSeconds(m));
  }
  ck.driver_seconds = cluster_->DriverSeconds();
  return ck;
}

Status Session::RestoreFromCheckpoint(const CheckpointState& ck,
                                      const DbtfConfig& config,
                                      RunState* state,
                                      FactorBroadcastState* bcast, Rng* rng) {
  if (ck.config_fingerprint != FingerprintConfig(config)) {
    return Status::FailedPrecondition(
        "checkpoint was written by a different configuration");
  }
  if (ck.tensor_fingerprint != tensor_fingerprint_) {
    return Status::FailedPrecondition(
        "checkpoint was written over a different tensor");
  }
  // Checkpoints fire only at column boundaries, so a valid cursor has
  // next_column in [1, rank] (== rank: finalize the mode without an engine
  // call, see UpdateFactorsAt).
  if (ck.iteration < 1 || ck.set_index < 0 ||
      ck.set_index >= config.num_initial_sets || ck.mode_index < 0 ||
      ck.mode_index > 2 || ck.next_column < 1 ||
      ck.next_column > config.rank) {
    return Status::FailedPrecondition("checkpoint cursor is out of range");
  }

  state->iteration = static_cast<int>(ck.iteration);
  state->set_index = static_cast<int>(ck.set_index);
  state->mode_index = static_cast<int>(ck.mode_index);
  state->next_column = ck.next_column;
  state->columns_done = ck.columns_done;
  state->current.a = ck.a;
  state->current.b = ck.b;
  state->current.c = ck.c;
  state->current_ready = true;
  state->best_error = ck.best_error;
  if (ck.has_best) {
    state->best.a = ck.best_a;
    state->best.b = ck.best_b;
    state->best.c = ck.best_c;
  }
  state->update_stats.cache_entries = ck.update_cache_entries;
  state->update_stats.cache_bytes = ck.update_cache_bytes;
  state->update_stats.cells_changed = ck.update_cells_changed;
  state->update_stats.final_error = ck.update_final_error;
  state->iter_stats.error = ck.iter_error;
  state->iter_stats.cells_changed = ck.iter_cells_changed;
  state->iter_stats.cache_entries = ck.iter_cache_entries;
  state->iter_stats.cache_bytes = ck.iter_cache_bytes;
  state->iteration_errors = ck.iteration_errors;
  state->cells_changed = ck.cells_changed;
  state->cache_entries = ck.cache_entries;
  state->cache_bytes = ck.cache_bytes;
  state->checkpoints_written = ck.checkpoints_written;
  state->resumed_from_iteration = static_cast<int>(ck.iteration);
  state->base_comm = ck.comm;
  state->base_recovery = ck.recovery;

  rng->RestoreState(ck.rng_state);

  // Broadcast shadows: every committed slot comes back, including the one
  // the cursor mode does not reference — the next mode's plan compares
  // against that slot's checkpointed content.
  for (int slot = 0; slot < 3; ++slot) {
    const FactorShadowSnapshot& shadow =
        ck.shadows[static_cast<std::size_t>(slot)];
    if (shadow.initialized) {
      bcast->RestoreShadow(slot, shadow.content, shadow.generation);
    }
  }

  // Cluster: replay the fault schedule position, re-mark the dead machines
  // (uncharged — the checkpoint's RecoveryStats already record the losses),
  // restore partition coverage onto the same survivors the interrupted run
  // chose, and rehydrate the workers' resident factor content at the cursor
  // mode's roles.
  DBTF_RETURN_IF_ERROR(cluster_->RestoreFaultDeliveryState(
      ck.fault_delivery_counters, ck.dead_machines));
  for (const int machine : ck.dead_machines) {
    cluster_->RestoreDeadMachine(machine);
  }
  DBTF_RETURN_IF_ERROR(RebuildCoverage(false));

  const ModeRoles& cursor =
      kModeRoles[static_cast<std::size_t>(ck.mode_index)];
  WorkerFactorRestore workers;
  workers.mode = cursor.mode;
  workers.rows = shapes_[cursor.shape_slot].rows;
  workers.mf_slot = cursor.roles.mf_slot;
  workers.ms_slot = cursor.roles.ms_slot;
  workers.cache_group_size = config.cache_group_size;
  workers.enable_caching = config.enable_caching;
  for (int slot = 0; slot < 3; ++slot) {
    const FactorShadowSnapshot& shadow =
        ck.shadows[static_cast<std::size_t>(slot)];
    if (!shadow.initialized) continue;
    FactorSlotRestore restore_slot;
    restore_slot.slot = slot;
    restore_slot.generation = shadow.generation;
    restore_slot.content = &shadow.content;
    workers.slots.push_back(restore_slot);
  }
  DBTF_RETURN_IF_ERROR(RestoreWorkerFactors(*cluster_, workers));

  return cluster_->RestoreVirtualClocks(ck.machine_seconds,
                                        ck.driver_seconds);
}

Result<DbtfResult> Session::Factorize(const DbtfConfig& config) {
  DBTF_RETURN_IF_ERROR(config.Validate());
  // Select the Boolean kernel backend before any packed-bit work. Fails the
  // run up front when a specific backend is not compiled in or the CPU
  // lacks it; kAuto always succeeds.
  DBTF_RETURN_IF_ERROR(SetKernelBackend(config.kernel_backend));
  if (config.num_partitions != num_partitions_requested_) {
    return Status::InvalidArgument(
        "session was partitioned for a different num_partitions");
  }
  if (config.cluster.num_machines != num_machines_) {
    return Status::InvalidArgument(
        "session cluster has a different machine count");
  }

  Timer run;
  // A run's budget and clocks cover the whole factorization it reports,
  // including its share of the session build.
  const auto expired = [&]() {
    return config.time_budget_seconds > 0.0 &&
           build_seconds_ + run.ElapsedSeconds() > config.time_budget_seconds;
  };

  // Open the checkpoint store up front so an unusable directory fails the
  // run before any compute.
  std::unique_ptr<CheckpointStore> store;
  if (!config.checkpoint_dir.empty()) {
    DBTF_ASSIGN_OR_RETURN(
        CheckpointStore opened,
        CheckpointStore::Open(config.checkpoint_dir,
                              config.checkpoint_retention));
    store = std::make_unique<CheckpointStore>(std::move(opened));
  }

  Rng rng(config.seed);
  // Broadcast shadows are per run, not per session: a fresh run must
  // report the same ledger a fresh session would (its first update ships
  // full operands), so multi-run reuse stays byte-comparable to one-shot
  // wrappers. Workers may still skip redundant *applies* across runs thanks
  // to the globally unique generations, but the wire ledger is per run.
  FactorBroadcastState bcast;
  RunState state;

  cluster_->ResetVirtualTime();
  if (config.resume) {
    DBTF_ASSIGN_OR_RETURN(const CheckpointState ck, store->LoadNewestValid());
    DBTF_RETURN_IF_ERROR(
        RestoreFromCheckpoint(ck, config, &state, &bcast, &rng));
    DBTF_LOG(kInfo,
             "resumed from checkpoint: iteration %d, mode %d, column %lld",
             state.iteration, state.mode_index,
             static_cast<long long>(state.next_column));
  } else {
    for (int m = 0; m < num_machines_; ++m) {
      cluster_->ChargeCompute(m, shuffle_virtual_seconds_);
    }
    state.base_comm = shuffle_snapshot_;
  }
  const CommSnapshot ledger_start = cluster_->comm().Snapshot();
  const RecoveryStats recovery_start = cluster_->recovery().Snapshot();

  CheckpointContext ckpt;
  ckpt.session = this;
  ckpt.config = &config;
  ckpt.store = store.get();
  ckpt.state = &state;
  ckpt.bcast = &bcast;
  ckpt.rng = &rng;
  ckpt.config_fingerprint = FingerprintConfig(config);
  ckpt.ledger_start = ledger_start;
  ckpt.recovery_start = recovery_start;

  DbtfResult result;

  // Iteration 1: update all L initial sets, keep the best (Alg. 2).
  // An empty tensor has no fiber to sample: it starts from random factors.
  const bool fiber_init = config.init_scheme == InitScheme::kFiberSample &&
                          tensor_->NumNonZeros() > 0;
  if (state.iteration == 1) {
    for (; state.set_index < config.num_initial_sets; ++state.set_index) {
      if (state.set_index > 0 && expired()) {
        return Status::DeadlineExceeded("DBTF: initial factor sets");
      }
      if (!state.current_ready) {
        if (fiber_init) {
          SampleFiberFactors(*tensor_, config.rank, &rng, &state.current.a,
                             &state.current.b, &state.current.c);
        } else {
          state.current.a = BitMatrix::Random(tensor_->dim_i(), config.rank,
                                              config.init_density, &rng);
          state.current.b = BitMatrix::Random(tensor_->dim_j(), config.rank,
                                              config.init_density, &rng);
          state.current.c = BitMatrix::Random(tensor_->dim_k(), config.rank,
                                              config.init_density, &rng);
        }
        state.current_ready = true;
      }
      DBTF_RETURN_IF_ERROR(UpdateFactorsAt(&state, config, &bcast, &ckpt));
      const TripleStats stats = state.iter_stats;
      state.iter_stats = TripleStats{};
      state.cells_changed += stats.cells_changed;
      state.cache_entries = std::max(state.cache_entries, stats.cache_entries);
      state.cache_bytes = std::max(state.cache_bytes, stats.cache_bytes);
      if (state.best_error < 0 || stats.error < state.best_error) {
        state.best_error = stats.error;
        state.best = std::move(state.current);
      }
      state.current_ready = false;
    }
    state.iteration_errors.push_back(state.best_error);
    // Iterations >= 2 refine the winning set; `best` is consumed here and
    // never checkpointed again (has_best binds to iteration 1).
    state.current = std::move(state.best);
    state.current_ready = true;
    state.best_error = -1;
    state.iteration = 2;
    state.set_index = 0;
  }

  // Iterations 2..T on the winning set, until convergence.
  for (; state.iteration <= config.max_iterations; ++state.iteration) {
    if (expired()) {
      return Status::DeadlineExceeded("DBTF: iterations");
    }
    DBTF_RETURN_IF_ERROR(UpdateFactorsAt(&state, config, &bcast, &ckpt));
    const TripleStats stats = state.iter_stats;
    state.iter_stats = TripleStats{};
    state.cells_changed += stats.cells_changed;
    state.cache_entries = std::max(state.cache_entries, stats.cache_entries);
    state.cache_bytes = std::max(state.cache_bytes, stats.cache_bytes);
    const std::int64_t previous = state.iteration_errors.back();
    state.iteration_errors.push_back(stats.error);
    if (previous - stats.error <= config.convergence_epsilon) {
      result.converged = true;
      break;
    }
  }

  result.a = std::move(state.current.a);
  result.b = std::move(state.current.b);
  result.c = std::move(state.current.c);
  result.iteration_errors = std::move(state.iteration_errors);
  result.final_error = result.iteration_errors.back();
  result.iterations_run = static_cast<int>(result.iteration_errors.size());
  result.cells_changed = state.cells_changed;
  result.cache_entries = state.cache_entries;
  result.cache_bytes = state.cache_bytes;
  result.checkpoints_written = state.checkpoints_written;
  result.resumed_from_iteration = state.resumed_from_iteration;
  // This run's traffic plus what the run had already moved before this
  // process — the session's one-off shuffle on a fresh run, the checkpoint's
  // run-attributed snapshot on a resumed one. A session used for a single
  // run reports exactly what the monolithic driver did.
  result.comm =
      cluster_->comm().Snapshot().Since(ledger_start).Plus(state.base_comm);
  result.recovery = cluster_->recovery()
                        .Snapshot()
                        .Since(recovery_start)
                        .Plus(state.base_recovery);
  result.wall_seconds = build_seconds_ + run.ElapsedSeconds();
  result.virtual_seconds = cluster_->VirtualMakespanSeconds();
  result.driver_seconds = cluster_->DriverSeconds();
  result.machine_seconds = result.virtual_seconds - result.driver_seconds;
  result.partitions_used = nparts_[0];
  result.kernel_backend = KernelBackendName(ActiveKernelBackend());
  return result;
}

}  // namespace dbtf
