#ifndef DBTF_TESTS_TEST_UTIL_H_
#define DBTF_TESTS_TEST_UTIL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitspan.h"
#include "common/check.h"
#include "common/kernels/kernels.h"
#include "common/random.h"
#include "common/status.h"
#include "dist/cluster.h"
#include "dist/transport/transport.h"
#include "tensor/bit_matrix.h"
#include "tensor/boolean_ops.h"
#include "tensor/sparse_tensor.h"
#include "tensor/unfold.h"

namespace dbtf {
namespace testing {

/// Naive O(m*r*n) Boolean matrix product used as a reference.
inline BitMatrix NaiveBooleanProduct(const BitMatrix& a, const BitMatrix& b) {
  BitMatrix out(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      bool value = false;
      for (std::int64_t k = 0; k < a.cols() && !value; ++k) {
        value = a.Get(i, k) && b.Get(k, j);
      }
      out.Set(i, j, value);
    }
  }
  return out;
}

/// Cell-by-cell Boolean CP reconstruction value.
inline bool NaiveReconCell(const BitMatrix& a, const BitMatrix& b,
                           const BitMatrix& c, std::int64_t i, std::int64_t j,
                           std::int64_t k) {
  for (std::int64_t r = 0; r < a.cols(); ++r) {
    if (a.Get(i, r) && b.Get(j, r) && c.Get(k, r)) return true;
  }
  return false;
}

/// Brute-force |X xor recon| over every cell of the tensor.
inline std::int64_t NaiveReconstructionError(const SparseTensor& x,
                                             const BitMatrix& a,
                                             const BitMatrix& b,
                                             const BitMatrix& c) {
  std::int64_t error = 0;
  for (std::int64_t i = 0; i < x.dim_i(); ++i) {
    for (std::int64_t j = 0; j < x.dim_j(); ++j) {
      for (std::int64_t k = 0; k < x.dim_k(); ++k) {
        const bool recon = NaiveReconCell(a, b, c, i, j, k);
        const bool actual = x.Contains(i, j, k);
        if (recon != actual) ++error;
      }
    }
  }
  return error;
}

/// Small random tensor for property tests (deduplicated and sorted).
inline SparseTensor RandomTensor(std::int64_t dim_i, std::int64_t dim_j,
                                 std::int64_t dim_k, double density,
                                 std::uint64_t seed) {
  SparseTensor t = SparseTensor::Create(dim_i, dim_j, dim_k).value();
  Rng rng(seed);
  for (std::int64_t i = 0; i < dim_i; ++i) {
    for (std::int64_t j = 0; j < dim_j; ++j) {
      for (std::int64_t k = 0; k < dim_k; ++k) {
        if (rng.NextBool(density)) t.AddUnchecked(i, j, k);
      }
    }
  }
  t.SortAndDedup();
  return t;
}

/// Greedy column-wise factor update against the dense unfolding, recomputing
/// every Boolean row summation — the reference for UpdateFactor tests.
/// Updates `factor` in place and returns the factor's final error.
inline std::int64_t ReferenceUpdateFactor(const BitMatrix& unfolded,
                                          BitMatrix* factor,
                                          const BitMatrix& mf,
                                          const BitMatrix& ms) {
  const BitMatrix krt = KhatriRao(mf, ms).value().Transpose();
  const std::int64_t rank = factor->cols();
  const std::size_t words = static_cast<std::size_t>(krt.words_per_row());
  std::vector<BitWord> sum(words);
  const MutableBitSpan sum_span(sum.data(),
                                static_cast<std::size_t>(krt.cols()));
  const auto row_error = [&](std::int64_t r, std::uint64_t mask) {
    std::fill(sum.begin(), sum.end(), BitWord{0});
    ForEachSetBit(BitSpan(&mask, static_cast<std::size_t>(rank)),
                  [&](std::size_t b) {
      Kernels().or_into(sum_span, krt.Row(static_cast<std::int64_t>(b)));
    });
    return Kernels().xor_popcount(sum_span, unfolded.Row(r));
  };
  std::int64_t final_error = 0;
  for (std::int64_t c = 0; c < rank; ++c) {
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(c);
    for (std::int64_t r = 0; r < factor->rows(); ++r) {
      const std::uint64_t mask = factor->RowMask64(r);
      const std::int64_t e0 = row_error(r, mask & ~bit);
      const std::int64_t e1 = row_error(r, mask | bit);
      const bool value = e1 < e0;
      factor->SetRowMask64(r, value ? (mask | bit) : (mask & ~bit));
      if (c == rank - 1) final_error += value ? e1 : e0;
    }
  }
  return final_error;
}

/// Scripted stand-in for a worker endpoint, for driving Cluster's typed
/// routing without a Worker behind it. It counts the deliveries of each
/// routed message kind, logs them in arrival order, and answers the n-th
/// call of a kind with the n-th scripted status (OK once the script runs
/// out). Queries count and script as kCollect, the injector's slot for
/// worker->driver replies. Every call reports `seconds_per_call` of handler
/// CPU. Calls arrive serialized on the machine's mailbox; read the counts
/// and the log after the routing call returned.
class ScriptedEndpoint final : public WorkerEndpoint {
 public:
  explicit ScriptedEndpoint(int machine) : machine_(machine) {}

  /// The n-th call (0-based) of `kind` returns statuses[n].
  void Script(MessageKind kind, std::vector<Status> statuses) {
    scripts_[Index(kind)] = std::move(statuses);
  }

  int deliveries(MessageKind kind) const {
    return counts_[Index(kind)].load();
  }
  const std::vector<MessageKind>& log() const { return log_; }

  /// Wire bytes this machine's collect reply claims.
  std::int64_t collect_bytes = 0;
  double seconds_per_call = 0.0;

  int machine() const override { return machine_; }

  Status Deliver(const FactorDelta&, double* compute_seconds) override {
    return Next(MessageKind::kBroadcast, compute_seconds);
  }
  Status Deliver(const RunUpdateColumn&, double* compute_seconds) override {
    return Next(MessageKind::kDispatch, compute_seconds);
  }
  /// Fills the reply (every row's totals = machine + 1) before the scripted
  /// status applies, so a failed attempt leaves a payload behind that the
  /// router must drop.
  Status Collect(const CollectErrorsRequest& msg,
                 CollectErrorsResponse* response,
                 double* compute_seconds) override {
    const std::size_t rows = static_cast<std::size_t>(msg.rows);
    response->totals0.assign(rows, machine_ + 1);
    response->totals1.assign(rows, machine_ + 1);
    response->wire_bytes = collect_bytes;
    return Next(MessageKind::kCollect, compute_seconds);
  }
  Status Query(const QueryRequest& msg, QueryResponse* response,
               double* compute_seconds) override {
    response->id = msg.id;
    return Next(MessageKind::kCollect, compute_seconds);
  }
  Status Store(StorePartitionRequest, double*) override {
    return Status::OK();
  }
  Result<std::vector<std::int64_t>> ListPartitions(Mode, double*) override {
    return std::vector<std::int64_t>{};
  }

 private:
  static std::size_t Index(MessageKind kind) {
    return static_cast<std::size_t>(kind);
  }

  Status Next(MessageKind kind, double* compute_seconds) {
    if (compute_seconds != nullptr) *compute_seconds += seconds_per_call;
    log_.push_back(kind);
    const std::size_t n =
        static_cast<std::size_t>(counts_[Index(kind)].fetch_add(1));
    const std::vector<Status>& script = scripts_[Index(kind)];
    return n < script.size() ? script[n] : Status::OK();
  }

  int machine_;
  std::array<std::vector<Status>, 3> scripts_;
  std::array<std::atomic<int>, 3> counts_{};
  std::vector<MessageKind> log_;
};

/// Attaches one ScriptedEndpoint per listed machine and returns them.
inline std::vector<std::shared_ptr<ScriptedEndpoint>> AttachScripted(
    Cluster& cluster, const std::vector<int>& machines) {
  std::vector<std::shared_ptr<ScriptedEndpoint>> endpoints;
  for (const int m : machines) {
    endpoints.push_back(std::make_shared<ScriptedEndpoint>(m));
    const Status attached = cluster.AttachEndpoint(m, endpoints.back());
    DBTF_CHECK(attached.ok(), "%s", attached.ToString().c_str());
  }
  return endpoints;
}

/// A broadcast whose wire size is exactly `bytes` per machine (a multiple
/// of 8): one full-matrix update of bytes / 8 single-word rows. Scripted
/// endpoints never read the payload, so the matrix itself stays empty.
inline FactorDelta SizedBroadcast(std::int64_t bytes) {
  MatrixDelta d;
  d.full = true;
  d.rows = bytes / 8;
  d.cols = 64;
  FactorDelta msg;
  msg.updates.push_back(std::move(d));
  return msg;
}

}  // namespace testing
}  // namespace dbtf

#endif  // DBTF_TESTS_TEST_UTIL_H_
