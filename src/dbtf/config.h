#ifndef DBTF_DBTF_CONFIG_H_
#define DBTF_DBTF_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/kernels/kernels.h"
#include "common/status.h"
#include "dist/cluster.h"

namespace dbtf {

/// How the L initial factor sets are produced.
enum class InitScheme {
  /// Independent Bernoulli(init_density) entries, as described in the paper.
  /// Boolean ALS can collapse to the all-zero factorization from such
  /// starts; the paper's L-sets mechanism exists to mitigate exactly that.
  kRandom,
  /// Data-driven seeding (default): each rank-1 component starts from the
  /// three fibers through a uniformly random non-zero cell, so the first
  /// iteration begins from patterns that already cover part of the tensor.
  kFiberSample,
};

/// Parameters of the DBTF factorization (Algorithm 2 of the paper).
struct DbtfConfig {
  /// Rank R: number of rank-1 components. Must be in [1, 64]; factor rows
  /// double as 64-bit cache keys.
  std::int64_t rank = 10;

  /// T: maximum number of alternating iterations.
  int max_iterations = 10;

  /// L: number of random initial factor sets; the first iteration updates
  /// all of them and keeps the one with the smallest error.
  int num_initial_sets = 1;

  /// N: number of vertical partitions per unfolded tensor.
  std::int64_t num_partitions = 16;

  /// V: maximum number of factor columns cached in a single table; ranks
  /// above V split into ceil(R/V) tables (Lemma 2). Must be in [1, 24].
  int cache_group_size = 15;

  /// Initialization scheme for the L factor sets.
  InitScheme init_scheme = InitScheme::kFiberSample;

  /// Density of the random initial factor matrices (kRandom scheme).
  double init_density = 0.1;

  /// Seed for initialization (factorization is deterministic given it).
  std::uint64_t seed = 0;

  /// Convergence: stop when the error improves by at most this many cells
  /// between consecutive iterations.
  std::int64_t convergence_epsilon = 0;

  /// Ablation knob: when false, Boolean row summations are recomputed on
  /// every lookup instead of being served from the precomputed tables.
  bool enable_caching = true;

  /// Cooperative wall-clock budget in seconds; 0 means unlimited. Checked
  /// between factor updates; expiry returns DeadlineExceeded.
  double time_budget_seconds = 0.0;

  /// Durable checkpointing (src/ckpt/): when non-empty, the run snapshots
  /// its full state under this directory at the configured cadence and can
  /// be resumed bitwise-identically after a kill (see `resume`).
  std::string checkpoint_dir;

  /// Checkpoint cadence in completed factor-update columns; 0 (default)
  /// snapshots once per completed mode update (i.e. every `rank` columns).
  std::int64_t checkpoint_every_columns = 0;

  /// Snapshots retained on disk; older ones are pruned after each write.
  /// Must be >= 1.
  int checkpoint_retention = 3;

  /// Resume from the newest valid snapshot under `checkpoint_dir` instead
  /// of starting fresh. The configuration and the tensor must match the
  /// checkpointed run (fingerprint-checked); the resumed run produces
  /// bitwise-identical factors and error ledger to an uninterrupted one.
  bool resume = false;

  /// Test hook for the kill-and-resume drill: hard-kill the process
  /// (SIGKILL) after this many completed columns, after any checkpoint due
  /// at that column has been written. 0 disables. Proves snapshot
  /// durability — nothing after the fsynced rename survives.
  std::int64_t crash_after_columns = 0;

  /// Test seam: abort the run with kResourceExhausted after this many
  /// completed columns — an in-process stand-in for `crash_after_columns`
  /// that tests can catch and resume from within one process. 0 disables.
  std::int64_t halt_after_columns = 0;

  /// Boolean kernel backend for every packed-bit operation of the run.
  /// kAuto (default) dispatches to the widest SIMD backend the CPU and the
  /// build support; kPortable forces the scalar oracle. Factors, error
  /// curves, and ledgers are bitwise identical across backends — this is a
  /// performance knob, never a results knob — so checkpoints resume freely
  /// across backends (the config fingerprint excludes it, like transport).
  KernelBackend kernel_backend = KernelBackend::kAuto;

  /// Simulated cluster configuration (machines, threads, network model).
  ClusterConfig cluster;

  Status Validate() const;
};

}  // namespace dbtf

#endif  // DBTF_DBTF_CONFIG_H_
