#ifndef DBTF_CKPT_CHECKPOINT_H_
#define DBTF_CKPT_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/comm_stats.h"
#include "dist/fault.h"
#include "tensor/bit_matrix.h"

namespace dbtf {

/// Checkpoint/restore subsystem: durable snapshots of the full factorization
/// state, resumable to a bitwise-identical result (see DESIGN.md,
/// "Checkpoint/restore").
///
/// A snapshot is a directory `ckpt-<sequence>` holding a versioned,
/// CRC-checked MANIFEST plus one blob per artifact group. Writes are atomic:
/// blobs and manifest land in a `.tmp` directory, every file is fsynced,
/// and a rename publishes the snapshot — a crash at any point leaves either
/// the previous snapshots intact or an unpublished `.tmp` that the next
/// writer discards. Restore walks sequences newest-first and falls back past
/// corrupt or truncated snapshots (manifest CRC, per-blob size + CRC, and
/// exact-consumption parses all gate validity).
///
/// This layer knows nothing about sessions or clusters: it (de)serializes
/// the plain CheckpointState below. The session (dbtf/session.cc) decides
/// what goes in and how to rehydrate workers from it.

/// One broadcast shadow slot (FactorBroadcastState) captured in a
/// snapshot. `content` is meaningful only when `initialized`.
struct FactorShadowSnapshot {
  bool initialized = false;
  std::uint64_t generation = 0;
  BitMatrix content;
};

/// Everything a resumed run needs to continue bitwise-identically.
struct CheckpointState {
  /// Identity guards: a snapshot may only resume the same configuration on
  /// the same tensor (Fnv1a64 fingerprints computed by the session).
  std::uint64_t config_fingerprint = 0;
  std::uint64_t tensor_fingerprint = 0;

  /// Cursor: the run is between columns — `next_column` of mode
  /// `mode_index` of iteration `iteration` (set `set_index` during the
  /// multi-start first iteration) is the next column to decide.
  /// `columns_done` counts completed columns across the whole run (the
  /// checkpoint cadence unit).
  std::int64_t iteration = 1;
  std::int64_t set_index = 0;
  std::int64_t mode_index = 0;
  std::int64_t next_column = 0;
  std::int64_t columns_done = 0;

  /// xoshiro256** engine state at the cursor.
  std::array<std::uint64_t, 4> rng_state{};

  /// Current factor matrices (the set under update at the cursor).
  BitMatrix a;
  BitMatrix b;
  BitMatrix c;
  /// Best initial set seen so far (multi-start first iteration only).
  bool has_best = false;
  BitMatrix best_a;
  BitMatrix best_b;
  BitMatrix best_c;
  std::int64_t best_error = -1;

  /// Partial statistics of the in-flight factor update (columns
  /// [0, next_column)) and of the completed mode updates of the current
  /// iteration.
  std::int64_t update_cache_entries = 0;
  std::int64_t update_cache_bytes = 0;
  std::int64_t update_cells_changed = 0;
  std::int64_t update_final_error = 0;
  std::int64_t iter_error = 0;
  std::int64_t iter_cells_changed = 0;
  std::int64_t iter_cache_entries = 0;
  std::int64_t iter_cache_bytes = 0;

  /// Result accumulators up to the cursor.
  std::vector<std::int64_t> iteration_errors;
  std::int64_t cells_changed = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_bytes = 0;
  std::int64_t checkpoints_written = 0;

  /// Broadcast shadows, indexed by worker slot (A = 0, B = 1, C = 2).
  std::array<FactorShadowSnapshot, 3> shadows;

  /// Run-attributed ledgers at the cursor (already Since/Plus-folded by the
  /// session, so they are correct across chains of resumes).
  CommSnapshot comm;
  RecoveryStats recovery;

  /// Fault-injector delivery counters (machine * 3 + kind; empty without a
  /// fault plan) and permanently dead machines.
  std::vector<std::int64_t> fault_delivery_counters;
  std::vector<int> dead_machines;

  /// Virtual clocks at the cursor.
  std::vector<double> machine_seconds;
  double driver_seconds = 0.0;
};

/// Durable store of snapshots under one directory.
class CheckpointStore {
 public:
  /// Opens (creating the directory if needed) a store retaining the newest
  /// `retention` snapshots; older ones are pruned after each write.
  static Result<CheckpointStore> Open(const std::string& dir, int retention);

  /// Atomically writes `state` as the next snapshot in sequence, prunes
  /// beyond the retention limit, and returns the new sequence number. After
  /// this returns, the snapshot survives a hard process kill (fsync on every
  /// file and on the directory).
  Result<std::int64_t> Write(const CheckpointState& state) const;

  /// Loads the newest snapshot that passes validation, skipping (with a
  /// warning) any that are corrupt, truncated, or half-written. Fails with
  /// kNotFound when no valid snapshot exists.
  Result<CheckpointState> LoadNewestValid() const;

  /// Published snapshot sequence numbers, ascending.
  std::vector<std::int64_t> ListSequences() const;

  const std::string& dir() const { return dir_; }
  int retention() const { return retention_; }

 private:
  CheckpointStore(std::string dir, int retention);

  std::string dir_;
  int retention_;
};

}  // namespace dbtf

#endif  // DBTF_CKPT_CHECKPOINT_H_
