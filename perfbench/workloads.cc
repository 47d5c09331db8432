#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/serde.h"
#include "dbtf/config.h"
#include "dbtf/dbtf.h"
#include "dbtf/partition.h"
#include "dbtf/session.h"
#include "dist/cluster.h"
#include "dist/provision.h"
#include "dist/transport/transport.h"
#include "dist/transport/wire.h"
#include "modelselect/rank_selection.h"
#include "serve/serve_engine.h"
#include "serve/workload.h"
#include "spans.h"
#include "tensor/bit_matrix.h"
#include "tensor/io.h"
#include "tensor/sparse_tensor.h"

namespace perfbench {
namespace {

using dbtf::BitMatrix;
using dbtf::Coord;
using dbtf::QueryResponse;
using dbtf::Result;
using dbtf::ServeOp;
using dbtf::ServeOpKind;
using dbtf::SparseTensor;
using dbtf::Status;
using dbtf::TransportKind;
using Factors = std::array<BitMatrix, 3>;
using Counters = std::map<std::string, double>;

// --- Workload parameters ----------------------------------------------------

constexpr int kMachines = 4;
/// T for every Factorize. At T=10 these tensors stop after 2 or 3
/// iterations depending on the seed, so the work per run, and with it every
/// timing, varied between seeds; at T=2 every seed does the same work.
constexpr int kIterations = 2;
/// Rounds per run, at least: set-up time is the median of this many.
constexpr int kMinRounds = 3;
/// No round starts once the run could pass this, so a run ends well within
/// its 180 s limit.
constexpr double kRunCapSeconds = 140.0;

// ingest-512: planted rank-10 512^3, factor density 0.1, no noise. A round
// takes about a second, so a run takes the median over tens of rounds.
constexpr std::int64_t kIngestDim = 512;
constexpr std::int64_t kIngestRank = 10;
constexpr double kIngestDensity = 0.1;

// ranksweep-512-socket: noisy planted rank-20 512^3, swept over five ranks.
constexpr std::int64_t kSweepDim = 512;
constexpr std::int64_t kSweepPlantedRank = 20;
constexpr double kSweepDensity = 0.08;
constexpr double kSweepAdditive = 0.10;
constexpr double kSweepDestructive = 0.05;
constexpr std::int64_t kSweepRanks[] = {8, 16, 24, 32, 40};
constexpr int kSweepInitialSets = 4;

// Layer probe of traced runs: a small planted tensor through the tensor,
// dbtf and modelselect calls a workload does not make itself ...
constexpr std::int64_t kProbeDim = 128;
constexpr std::int64_t kProbeRank = 4;
constexpr int kProbeRun = 1000000;
// ... then YCSB-style serving: random 1024 x 16 factors per mode on 4 socket
// workers, one closed-loop client.
constexpr std::int64_t kServeDim = 1024;
constexpr std::int64_t kServeRank = 16;
constexpr double kServeDensity = 0.12;
constexpr std::int64_t kServeOps = 15000;
constexpr std::int64_t kServeTopR = 5;

// --- Deterministic input generation ----------------------------------------

/// The benchmark's own generator, so the inputs do not change when the
/// program's generators do.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Every column gets exactly round(density * rows) ones at distinct random
/// rows, so the tensor's size and structure vary little between seeds.
BitMatrix RandomFactor(SplitMix64* rng, std::int64_t rows, std::int64_t rank,
                       double density) {
  BitMatrix m(rows, rank);
  std::vector<std::int64_t> order(static_cast<std::size_t>(rows));
  const auto ones =
      static_cast<std::int64_t>(static_cast<double>(rows) * density + 0.5);
  for (std::int64_t c = 0; c < rank; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      order[static_cast<std::size_t>(r)] = r;
    }
    for (std::int64_t n = 0; n < ones; ++n) {
      const auto pick = n + static_cast<std::int64_t>(
                                rng->Below(static_cast<std::uint64_t>(rows - n)));
      std::swap(order[static_cast<std::size_t>(n)],
                order[static_cast<std::size_t>(pick)]);
      m.Set(order[static_cast<std::size_t>(n)], c, true);
    }
  }
  return m;
}

Factors RandomFactors(std::uint64_t seed, std::int64_t dim, std::int64_t rank,
                      double density) {
  SplitMix64 rng(seed);
  Factors f;
  for (BitMatrix& m : f) m = RandomFactor(&rng, dim, rank, density);
  return f;
}

/// Cells of the Boolean CP product of `f`, sorted by (i, j, k).
std::vector<Coord> PlantedCells(const Factors& f) {
  std::vector<std::uint64_t> c_rows(static_cast<std::size_t>(f[2].rows()));
  for (std::int64_t k = 0; k < f[2].rows(); ++k) {
    c_rows[static_cast<std::size_t>(k)] = f[2].RowMask64(k);
  }
  std::vector<Coord> cells;
  for (std::int64_t i = 0; i < f[0].rows(); ++i) {
    const std::uint64_t ai = f[0].RowMask64(i);
    if (ai == 0) continue;
    for (std::int64_t j = 0; j < f[1].rows(); ++j) {
      const std::uint64_t m = ai & f[1].RowMask64(j);
      if (m == 0) continue;
      for (std::size_t k = 0; k < c_rows.size(); ++k) {
        if ((c_rows[k] & m) != 0) {
          cells.push_back({static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(j),
                           static_cast<std::uint32_t>(k)});
        }
      }
    }
  }
  return cells;
}

/// Deletes `destructive` of the planted 1s, then adds `additive` (as a share
/// of the planted count) new 1s at random cells that are not set. Sorted
/// vectors instead of a hash set keep the generator's footprint below the
/// program's, so it does not set the run's peak RSS.
void AddNoise(std::int64_t dim, double additive, double destructive,
              SplitMix64* rng, std::vector<Coord>* cells) {
  const auto base = static_cast<std::int64_t>(cells->size());
  const auto num_delete =
      static_cast<std::int64_t>(static_cast<double>(base) * destructive + 0.5);
  for (std::int64_t d = 0; d < num_delete; ++d) {
    const auto pick = d + static_cast<std::int64_t>(
                              rng->Below(static_cast<std::uint64_t>(base - d)));
    std::swap((*cells)[static_cast<std::size_t>(d)],
              (*cells)[static_cast<std::size_t>(pick)]);
  }
  cells->erase(cells->begin(), cells->begin() + num_delete);
  std::sort(cells->begin(), cells->end());
  const auto num_add =
      static_cast<std::int64_t>(static_cast<double>(base) * additive + 0.5);
  const auto d = static_cast<std::uint64_t>(dim);
  std::vector<Coord> added;
  while (static_cast<std::int64_t>(added.size()) < num_add) {
    // Draw the missing count, then drop set cells and repeats.
    const std::size_t from = added.size();
    for (auto n = static_cast<std::int64_t>(from); n < num_add; ++n) {
      added.push_back({static_cast<std::uint32_t>(rng->Below(d)),
                       static_cast<std::uint32_t>(rng->Below(d)),
                       static_cast<std::uint32_t>(rng->Below(d))});
    }
    std::sort(added.begin(), added.end());
    added.erase(std::unique(added.begin(), added.end()), added.end());
    std::erase_if(added, [cells](const Coord& c) {
      return std::binary_search(cells->begin(), cells->end(), c);
    });
  }
  const std::size_t old_size = cells->size();
  cells->insert(cells->end(), added.begin(), added.end());
  std::inplace_merge(cells->begin(), cells->begin() + static_cast<std::ptrdiff_t>(old_size),
                     cells->end());
}

Result<SparseTensor> ToTensor(std::int64_t dim, const std::vector<Coord>& cells) {
  DBTF_ASSIGN_OR_RETURN(SparseTensor x, SparseTensor::Create(dim, dim, dim));
  x.Reserve(static_cast<std::int64_t>(cells.size()));
  for (const Coord& c : cells) x.AddUnchecked(c.i, c.j, c.k);
  x.SortAndDedup();
  return x;
}

/// Writes cells in the program's tensor text format ("I J K nnz" header,
/// then one "i j k" line per cell), through a temporary file.
Status WriteTensorFile(const std::string& path, std::int64_t dim,
                       const std::vector<Coord>& cells) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + tmp);
  std::string buf;
  buf.reserve(1 << 21);
  auto put = [&buf](std::uint64_t v, char sep) {
    char digits[24];
    char* end = std::to_chars(digits, digits + 20, v).ptr;
    *end++ = sep;
    buf.append(digits, static_cast<std::size_t>(end - digits));
  };
  put(static_cast<std::uint64_t>(dim), ' ');
  put(static_cast<std::uint64_t>(dim), ' ');
  put(static_cast<std::uint64_t>(dim), ' ');
  put(cells.size(), '\n');
  for (const Coord& c : cells) {
    put(c.i, ' ');
    put(c.j, ' ');
    put(c.k, '\n');
    if (buf.size() > (1 << 20)) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  std::fwrite(buf.data(), 1, buf.size(), f);
  if (std::fclose(f) != 0) return Status::IoError("cannot write " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("cannot rename " + tmp);
  return Status::OK();
}

/// Generated text is kept between runs, keyed by seed and by this version,
/// which must change whenever the generator does.
constexpr int kInputVersion = 1;

std::string IngestPath(const RunOptions& options) {
  return options.data_dir + "/ingest-512-v" + std::to_string(kInputVersion) +
         "-seed" + std::to_string(options.seed) + ".tns";
}

// --- Output checks ----------------------------------------------------------

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    Bytes(b, 8);
  }
  void Matrix(const BitMatrix& m) {
    U64(static_cast<std::uint64_t>(m.rows()));
    U64(static_cast<std::uint64_t>(m.cols()));
    for (std::int64_t r = 0; r < m.rows(); ++r) U64(m.RowMask64(r));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// |X xor [[A, B, C]]|, computed here from the factors alone, so the
/// factorizer's own error bookkeeping is checked against an independent count.
std::int64_t ReconstructionError(const SparseTensor& x, const Factors& f) {
  const std::int64_t rank = f[0].cols();
  const std::int64_t dim_k = f[2].rows();
  const std::size_t words = static_cast<std::size_t>((dim_k + 63) / 64);
  std::vector<std::vector<std::uint64_t>> c_cols(
      static_cast<std::size_t>(rank), std::vector<std::uint64_t>(words, 0));
  for (std::int64_t k = 0; k < dim_k; ++k) {
    const std::uint64_t m = f[2].RowMask64(k);
    for (std::int64_t r = 0; r < rank; ++r) {
      if ((m >> r) & 1) {
        c_cols[static_cast<std::size_t>(r)][static_cast<std::size_t>(k / 64)] |=
            std::uint64_t{1} << (k % 64);
      }
    }
  }
  std::unordered_map<std::uint64_t, std::int64_t> fiber_ones;
  std::vector<std::uint64_t> fiber(words);
  std::int64_t recon = 0;
  for (std::int64_t i = 0; i < f[0].rows(); ++i) {
    const std::uint64_t ai = f[0].RowMask64(i);
    if (ai == 0) continue;
    for (std::int64_t j = 0; j < f[1].rows(); ++j) {
      const std::uint64_t m = ai & f[1].RowMask64(j);
      if (m == 0) continue;
      auto [it, fresh] = fiber_ones.try_emplace(m, 0);
      if (fresh) {
        std::fill(fiber.begin(), fiber.end(), 0);
        for (std::int64_t r = 0; r < rank; ++r) {
          if (((m >> r) & 1) == 0) continue;
          const auto& col = c_cols[static_cast<std::size_t>(r)];
          for (std::size_t w = 0; w < words; ++w) fiber[w] |= col[w];
        }
        for (const std::uint64_t w : fiber) it->second += std::popcount(w);
      }
      recon += it->second;
    }
  }
  std::int64_t both = 0;
  for (const Coord& c : x.entries()) {
    if ((f[0].RowMask64(c.i) & f[1].RowMask64(c.j) & f[2].RowMask64(c.k)) != 0) {
      ++both;
    }
  }
  return x.NumNonZeros() + recon - 2 * both;
}

/// True iff `path` holds `m` in the program's matrix text format.
bool MatrixFileMatches(const std::string& path, const BitMatrix& m) {
  std::ifstream in(path);
  long long rows = -1, cols = -1;
  if (!(in >> rows >> cols) || rows != m.rows() || cols != m.cols()) {
    return false;
  }
  std::string line;
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    if (!(in >> line) || static_cast<std::int64_t>(line.size()) != m.cols()) {
      return false;
    }
    for (std::int64_t c = 0; c < m.cols(); ++c) {
      if ((line[static_cast<std::size_t>(c)] == '1') != m.Get(r, c)) {
        return false;
      }
    }
  }
  return !(in >> line);
}

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; failed operations are recorded as +inf, so they
/// count as missing every latency limit.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Run context ------------------------------------------------------------

/// One round of a workload: the timed chain from its first call to its last
/// output, and the counters it produced.
struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double e2e_s = 0.0;
  double virtual_s = 0.0;
  Counters counters;
  double peak_rss_mib = 0.0;  ///< process peak RSS when the round ended
  std::string factor_digest;
  std::int64_t final_error = -1;
  std::string serve_digest;  ///< set by RunServe
};

struct Ctx {
  explicit Ctx(const RunOptions& o) : options(o) {}
  const RunOptions& options;
  Tracer tracer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int clusters = 0;
};

/// Counts one timed call and its outcome toward failed_op_ratio.
template <typename T>
bool Counted(Ctx* ctx, const T& result) {
  ++ctx->attempted;
  if (result.ok()) return true;
  ++ctx->failed;
  return false;
}

Status StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

/// Counts the outcome held in `result` (a Status or Result variable) and
/// returns its status from the enclosing function if it failed.
#define PB_RETURN_IF_FAILED(ctx, result)                    \
  do {                                                      \
    if (!Counted(ctx, result)) return StatusOf(result);     \
  } while (0)

dbtf::ClusterConfig MakeClusterConfig(Ctx* ctx, TransportKind transport) {
  dbtf::ClusterConfig config;
  config.num_machines = kMachines;
  config.num_threads = 0;
  config.transport.kind = transport;
  if (transport == TransportKind::kSocket) {
    // A fresh, short, checkout-relative directory per cluster keeps the
    // socket paths inside the checkout and within sun_path.
    const std::string dir =
        ctx->options.work_dir + "/s" + std::to_string(ctx->clusters++);
    std::filesystem::create_directories(dir);
    config.transport.socket_dir = dir;
  }
  return config;
}

dbtf::DbtfConfig FactorizeConfig(Ctx* ctx, TransportKind transport,
                                 std::int64_t rank, int initial_sets) {
  dbtf::DbtfConfig config;
  config.rank = rank;
  config.num_initial_sets = initial_sets;
  config.max_iterations = kIterations;
  config.seed = ctx->options.seed;
  config.cluster = MakeClusterConfig(ctx, transport);
  return config;
}

void AddResultCounters(const dbtf::DbtfResult& r, Counters* c) {
  (*c)["dbtf.iterations"] += r.iterations_run;
  (*c)["dbtf.cells_changed"] += static_cast<double>(r.cells_changed);
  (*c)["dbtf.cache_entries"] += static_cast<double>(r.cache_entries);
  (*c)["dbtf.cache_bytes"] += static_cast<double>(r.cache_bytes);
  (*c)["dbtf.final_error"] += static_cast<double>(r.final_error);
  (*c)["dist.machine_s"] += r.machine_seconds;
  (*c)["dist.driver_s"] += r.driver_seconds;
}

void AddLedgerCounters(const dbtf::Cluster& cluster, Counters* c) {
  const dbtf::CommSnapshot s = cluster.comm().Snapshot();
  (*c)["dist.shuffle_bytes"] += static_cast<double>(s.shuffle_bytes);
  (*c)["dist.broadcast_bytes"] += static_cast<double>(s.broadcast_bytes);
  (*c)["dist.collect_bytes"] += static_cast<double>(s.collect_bytes);
  (*c)["dist.query_bytes"] += static_cast<double>(s.query_bytes);
  (*c)["dist.shuffle_events"] += static_cast<double>(s.shuffle_events);
  (*c)["dist.broadcast_events"] += static_cast<double>(s.broadcast_events);
  (*c)["dist.collect_events"] += static_cast<double>(s.collect_events);
  (*c)["dist.query_events"] += static_cast<double>(s.query_events);
  (*c)["dist.retries"] +=
      static_cast<double>(cluster.recovery().Snapshot().retries);
}

/// Partition share of Session::Create, timed on its own (traced runs only).
Status TimePartitionBuilds(Ctx* ctx, const SparseTensor& x) {
  for (const dbtf::Mode mode :
       {dbtf::Mode::kOne, dbtf::Mode::kTwo, dbtf::Mode::kThree}) {
    Span span(&ctx->tracer, "dbtf.partition_build");
    Result<dbtf::PartitionedUnfolding> built =
        dbtf::PartitionedUnfolding::Build(x, mode, 16);
    span.Stop();
    PB_RETURN_IF_FAILED(ctx, built);
  }
  return Status::OK();
}

/// WriteMatrixText x3 under work_dir; returns the end of the last write.
Status WriteFactors(Ctx* ctx, const Factors& f, const std::string& stem,
                    Clock::time_point* end) {
  static const char* const kSuffix[] = {".A.txt", ".B.txt", ".C.txt"};
  for (int slot = 0; slot < 3; ++slot) {
    const std::string path = ctx->options.work_dir + "/" + stem + kSuffix[slot];
    Span span(&ctx->tracer, "tensor.write");
    const Status st = dbtf::WriteMatrixText(f[static_cast<std::size_t>(slot)], path);
    span.Stop();
    *end = span.end();
    PB_RETURN_IF_FAILED(ctx, st);
  }
  return Status::OK();
}

Status CheckFactorFiles(Ctx* ctx, const Factors& f, const std::string& stem) {
  static const char* const kSuffix[] = {".A.txt", ".B.txt", ".C.txt"};
  for (int slot = 0; slot < 3; ++slot) {
    if (!MatrixFileMatches(ctx->options.work_dir + "/" + stem + kSuffix[slot],
                           f[static_cast<std::size_t>(slot)])) {
      return Status::Internal("written factor file does not hold the factor");
    }
  }
  return Status::OK();
}

Factors FactorsOf(const dbtf::DbtfResult& r) { return {r.a, r.b, r.c}; }

// --- Serving ----------------------------------------------------------------

std::vector<ServeOp> GenerateServeOps(std::uint64_t seed, const Factors& f,
                                      std::int64_t count) {
  dbtf::WorkloadOptions options;
  options.skew = dbtf::SkewKind::kWeblog;
  options.seed = seed;
  for (int s = 0; s < 3; ++s) options.dims[s] = f[static_cast<std::size_t>(s)].rows();
  options.rank = f[0].cols();
  options.top_r = kServeTopR;  // mix defaults: 0.70 / 0.15 / 0.05 / 0.10
  dbtf::WorkloadGenerator generator(options);
  std::vector<ServeOp> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (std::int64_t n = 0; n < count; ++n) ops.push_back(generator.Next());
  return ops;
}

/// Replays the stream on a private copy of the factors and checks every
/// membership and fiber answer against the dense Boolean product.
Status CheckServeAnswers(Factors f, const std::vector<ServeOp>& ops,
                         const std::vector<QueryResponse>& responses) {
  auto cell = [&f](std::int64_t i, std::int64_t j, std::int64_t k) {
    return f[0].RowMask64(i) & f[1].RowMask64(j) & f[2].RowMask64(k);
  };
  for (std::size_t n = 0; n < ops.size(); ++n) {
    const ServeOp& op = ops[n];
    const QueryResponse& resp = responses[n];
    switch (op.kind) {
      case ServeOpKind::kUpdate: {
        BitMatrix& m = f[static_cast<std::size_t>(op.update.slot)];
        for (std::int64_t r = 0; r < m.rows(); ++r) {
          m.Set(r, op.update.column,
                (op.update.bits[static_cast<std::size_t>(r / 64)] >> (r % 64)) & 1);
        }
        break;
      }
      case ServeOpKind::kMembership: {
        const std::uint64_t mask = cell(op.i, op.j, op.k);
        if (resp.member != (mask != 0) || resp.explain_mask != mask) {
          return Status::Internal("membership answer differs from the oracle");
        }
        break;
      }
      case ServeOpKind::kFiber: {
        const int free = static_cast<int>(op.mode) - 1;
        const std::int64_t len = f[static_cast<std::size_t>(free)].rows();
        if (resp.fiber_len != len) {
          return Status::Internal("fiber length differs from the oracle");
        }
        for (std::int64_t t = 0; t < len; ++t) {
          const std::uint64_t want =
              free == 0   ? cell(t, op.i, op.j)
              : free == 1 ? cell(op.j, t, op.i)
                          : cell(op.i, op.j, t);
          const bool got =
              (resp.fiber_bits[static_cast<std::size_t>(t / 64)] >> (t % 64)) & 1;
          if (got != (want != 0)) {
            return Status::Internal("fiber answer differs from the oracle");
          }
        }
        break;
      }
      case ServeOpKind::kTopConcepts:
        break;  // covered by the answer digest
    }
  }
  return Status::OK();
}

/// One serve op stream and what replaying it measured.
struct ServeStream {
  std::vector<ServeOp> ops;
  /// Latencies per ServeOpKind, in seconds; failed ops are +inf, so they
  /// miss every percentile.
  std::array<std::vector<double>, 4> latency;
  double ops_per_s = 0.0;  ///< closed-loop throughput
};

const char* OpSpanName(ServeOpKind kind) {
  switch (kind) {
    case ServeOpKind::kMembership: return "serve.membership";
    case ServeOpKind::kFiber: return "serve.fiber";
    case ServeOpKind::kTopConcepts: return "serve.top";
    case ServeOpKind::kUpdate: return "serve.update";
  }
  return "serve.op";
}

/// Cluster::Create, ProvisionWorkers (4 socket workers), ServeEngine::Create
/// and Load, then the closed-loop replay of `stream` by one client. The
/// answers are checked and their digest lands in probe->serve_digest.
Status RunServe(Ctx* ctx, const Factors& f, ServeStream* stream, Round* probe) {
  Span create(&ctx->tracer, "dist.cluster_create");
  Result<std::unique_ptr<dbtf::Cluster>> cluster =
      dbtf::Cluster::Create(MakeClusterConfig(ctx, TransportKind::kSocket));
  create.Stop();
  PB_RETURN_IF_FAILED(ctx, cluster);
  {
    Span span(&ctx->tracer, "dist.provision");
    const Status st = dbtf::ProvisionWorkers(**cluster);
    span.Stop();
    PB_RETURN_IF_FAILED(ctx, st);
  }
  Span make(&ctx->tracer, "serve.create");
  Result<std::unique_ptr<dbtf::ServeEngine>> engine =
      dbtf::ServeEngine::Create(cluster->get(), f[0], f[1], f[2]);
  make.Stop();
  PB_RETURN_IF_FAILED(ctx, engine);
  Span load(&ctx->tracer, "serve.load");
  const Status loaded = (*engine)->Load();
  load.Stop();
  PB_RETURN_IF_FAILED(ctx, loaded);

  const std::vector<ServeOp>& ops = stream->ops;
  std::vector<QueryResponse> responses(ops.size());
  std::int64_t failed = 0;
  bool torn = false;
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t n = 0; n < ops.size(); ++n) {
    const ServeOp& op = ops[n];
    Span span(&ctx->tracer, OpSpanName(op.kind));
    const Status st = dbtf::RunOp(engine->get(), op, &responses[n]);
    double seconds = span.Stop();
    if (!Counted(ctx, st)) {
      ++failed;
      seconds = std::numeric_limits<double>::infinity();
    } else if (op.kind != ServeOpKind::kUpdate) {
      // One client, so every read must see exactly the committed triple.
      const std::array<std::uint64_t, 3> committed = (*engine)->generations();
      torn |= responses[n].generations !=
              std::vector<std::uint64_t>(committed.begin(), committed.end());
    }
    stream->latency[static_cast<std::size_t>(op.kind)].push_back(seconds);
  }
  stream->ops_per_s = static_cast<double>(ops.size()) /
                      SecondsBetween(loop_start, Clock::now());
  const dbtf::ServeStats& stats = (*engine)->stats();
  probe->counters["serve.failovers"] = static_cast<double>(stats.failovers);
  probe->counters["serve.rebroadcasts"] =
      static_cast<double>(stats.rebroadcasts);
  probe->counters["serve.query_bytes_per_op"] =
      static_cast<double>((*cluster)->comm().Snapshot().query_bytes) /
      static_cast<double>(ops.size());

  if (failed > 0) {
    return Status::Internal(std::to_string(failed) + " serve ops failed");
  }
  if (torn) {
    return Status::Internal("a read observed an uncommitted generation triple");
  }
  // Generations come from a process-global counter; normalize them so the
  // digest compares only the answers.
  Fnv1a digest;
  for (std::size_t n = 0; n < ops.size(); ++n) {
    if (ops[n].kind == ServeOpKind::kUpdate) continue;
    responses[n].generations = {0, 1, 2};
    dbtf::ByteWriter encoded;
    dbtf::EncodeQueryResponse(responses[n], &encoded);
    digest.Bytes(encoded.bytes().data(), encoded.bytes().size());
  }
  probe->serve_digest = Hex(digest.value());
  return CheckServeAnswers(f, ops, responses);
}

// --- Workload rounds --------------------------------------------------------

Status IngestRound(Ctx* ctx, bool first, Round* round) {
  const std::string path = IngestPath(ctx->options);
  const dbtf::DbtfConfig config =
      FactorizeConfig(ctx, TransportKind::kInProcess, kIngestRank, 1);
  Span read(&ctx->tracer, "tensor.read");
  Result<SparseTensor> x = dbtf::ReadTensorText(path);
  read.Stop();
  PB_RETURN_IF_FAILED(ctx, x);
  Span create(&ctx->tracer, "dbtf.session_create");
  Result<std::unique_ptr<dbtf::Session>> session =
      dbtf::Session::Create(*x, config);
  create.Stop();
  PB_RETURN_IF_FAILED(ctx, session);
  Span fact(&ctx->tracer, "dbtf.factorize_first");
  Result<dbtf::DbtfResult> result = (*session)->Factorize(config);
  fact.Stop();
  PB_RETURN_IF_FAILED(ctx, result);
  const Factors factors = FactorsOf(*result);
  Clock::time_point end;
  DBTF_RETURN_IF_ERROR(WriteFactors(ctx, factors, "ingest", &end));

  round->setup_s = SecondsBetween(read.start(), create.end());
  round->e2e_s = SecondsBetween(read.start(), end);
  round->virtual_s = result->virtual_seconds;
  round->counters["tensor.read_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  AddResultCounters(*result, &round->counters);
  AddLedgerCounters((*session)->cluster(), &round->counters);
  Fnv1a digest;
  for (const BitMatrix& m : factors) digest.Matrix(m);
  round->factor_digest = Hex(digest.value());
  round->final_error = result->final_error;
  if (first) {
    if (ReconstructionError(*x, factors) != result->final_error) {
      return Status::Internal("final_error differs from a recount");
    }
    DBTF_RETURN_IF_ERROR(CheckFactorFiles(ctx, factors, "ingest"));
  }
  session->reset();  // the tensor must outlive the session
  if (round->traced) DBTF_RETURN_IF_ERROR(TimePartitionBuilds(ctx, *x));
  return Status::OK();
}

Status SweepRound(Ctx* ctx, const SparseTensor& x, bool first, Round* round) {
  dbtf::DbtfConfig config = FactorizeConfig(ctx, TransportKind::kSocket,
                                            kSweepRanks[0], kSweepInitialSets);
  Span create(&ctx->tracer, "dbtf.session_create");
  Result<std::unique_ptr<dbtf::Session>> session =
      dbtf::Session::Create(x, config);
  create.Stop();
  PB_RETURN_IF_FAILED(ctx, session);
  Fnv1a digest;
  std::int64_t error_sum = 0;
  double best_bits = std::numeric_limits<double>::infinity();
  Factors best;
  // The first round's factors, recounted once the round's timing has ended.
  std::vector<std::pair<Factors, std::int64_t>> to_recount;
  for (std::size_t n = 0; n < std::size(kSweepRanks); ++n) {
    config.rank = kSweepRanks[n];
    Span fact(&ctx->tracer, n == 0 ? "dbtf.factorize_first" : "dbtf.factorize");
    Result<dbtf::DbtfResult> result = (*session)->Factorize(config);
    fact.Stop();
    PB_RETURN_IF_FAILED(ctx, result);
    Span dl_span(&ctx->tracer, "modelselect.description_length");
    Result<dbtf::DescriptionLength> dl = dbtf::ComputeDescriptionLength(
        x, result->a, result->b, result->c);
    dl_span.Stop();
    PB_RETURN_IF_FAILED(ctx, dl);
    round->virtual_s += result->virtual_seconds;
    AddResultCounters(*result, &round->counters);
    error_sum += result->final_error;
    Factors f = FactorsOf(*result);
    for (const BitMatrix& m : f) digest.Matrix(m);
    if (first) to_recount.emplace_back(f, result->final_error);
    if (dl->total_bits() < best_bits) {
      best_bits = dl->total_bits();
      best = std::move(f);
    }
  }
  Clock::time_point end;
  DBTF_RETURN_IF_ERROR(WriteFactors(ctx, best, "ranksweep", &end));
  round->setup_s = SecondsBetween(create.start(), create.end());
  round->e2e_s = SecondsBetween(create.start(), end);
  AddLedgerCounters((*session)->cluster(), &round->counters);
  round->factor_digest = Hex(digest.value());
  round->final_error = error_sum;
  for (const auto& [f, final_error] : to_recount) {
    if (ReconstructionError(x, f) != final_error) {
      return Status::Internal("final_error differs from a recount");
    }
  }
  if (first) DBTF_RETURN_IF_ERROR(CheckFactorFiles(ctx, best, "ranksweep"));
  session->reset();
  if (round->traced) DBTF_RETURN_IF_ERROR(TimePartitionBuilds(ctx, x));
  return Status::OK();
}

/// Traced runs only: the calls the workloads do not make themselves. A
/// small planted tensor goes through read, partition, session, Factorize,
/// description length and write; then one client serves a weblog-skewed
/// stream (0.70 membership, 0.15 fiber, 0.05 top-5, 0.10 update) over random
/// factors on 4 socket workers. Socket serving latency swings several-fold
/// with host load on a shared machine, so it is reported here, per layer,
/// rather than gated as a workload of its own.
Status RunProbe(Ctx* ctx, Round* probe, ServeStream* stream) {
  const Factors planted = RandomFactors(ctx->options.seed ^ 0x9e0be11ULL,
                                        kProbeDim, kProbeRank, 0.15);
  const std::string path = ctx->options.work_dir + "/probe.tns";
  DBTF_RETURN_IF_ERROR(WriteTensorFile(path, kProbeDim, PlantedCells(planted)));
  ctx->tracer.set_enabled(true);
  ctx->tracer.set_run(kProbeRun);
  Span root(&ctx->tracer, "round");
  Span read(&ctx->tracer, "tensor.read");
  Result<SparseTensor> x = dbtf::ReadTensorText(path);
  read.Stop();
  PB_RETURN_IF_FAILED(ctx, x);
  probe->counters["tensor.read_bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  DBTF_RETURN_IF_ERROR(TimePartitionBuilds(ctx, *x));
  const dbtf::DbtfConfig config =
      FactorizeConfig(ctx, TransportKind::kInProcess, kProbeRank, 1);
  Span create(&ctx->tracer, "dbtf.session_create");
  Result<std::unique_ptr<dbtf::Session>> session =
      dbtf::Session::Create(*x, config);
  create.Stop();
  PB_RETURN_IF_FAILED(ctx, session);
  Span fact(&ctx->tracer, "dbtf.factorize_first");
  Result<dbtf::DbtfResult> result = (*session)->Factorize(config);
  fact.Stop();
  PB_RETURN_IF_FAILED(ctx, result);
  AddResultCounters(*result, &probe->counters);
  AddLedgerCounters((*session)->cluster(), &probe->counters);
  Span dl_span(&ctx->tracer, "modelselect.description_length");
  Result<dbtf::DescriptionLength> dl = dbtf::ComputeDescriptionLength(
      *x, result->a, result->b, result->c);
  dl_span.Stop();
  PB_RETURN_IF_FAILED(ctx, dl);
  Clock::time_point end;
  DBTF_RETURN_IF_ERROR(WriteFactors(ctx, FactorsOf(*result), "probe", &end));
  session->reset();

  const Factors served = RandomFactors(ctx->options.seed ^ 0x5e7ce11aULL,
                                       kServeDim, kServeRank, kServeDensity);
  stream->ops = GenerateServeOps(ctx->options.seed ^ 0x5e7ce11aULL, served,
                                 kServeOps);
  return RunServe(ctx, served, stream, probe);
}

/// Runs rounds until the time budget is spent (at least kMinRounds, unless
/// the run would pass its cap). Traced runs trace every other round, so the
/// untraced ones in between give the tracing overhead.
Status RunRounds(Ctx* ctx, const std::function<Status(bool, Round*)>& round_fn,
                 std::vector<Round>* rounds) {
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  for (int r = 0;; ++r) {
    const double elapsed = SecondsBetween(start, Clock::now());
    if (r >= kMinRounds && elapsed >= ctx->options.seconds) break;
    if (r >= 1 && elapsed + longest > kRunCapSeconds) break;
    Round round;
    round.traced = ctx->options.trace && r % 2 == 0;
    ctx->tracer.set_enabled(round.traced);
    ctx->tracer.set_run(r);
    const Clock::time_point round_start = Clock::now();
    {
      Span whole(&ctx->tracer, "round");
      DBTF_RETURN_IF_ERROR(round_fn(r == 0, &round));
    }
    longest = std::max(longest, SecondsBetween(round_start, Clock::now()));
    round.peak_rss_mib = PeakRssMib();
    if (!rounds->empty()) {
      const Round& first = rounds->front();
      if (round.factor_digest != first.factor_digest ||
          round.final_error != first.final_error) {
        return Status::Internal("rounds of one run disagree on the outputs");
      }
    }
    rounds->push_back(std::move(round));
  }
  ctx->tracer.set_enabled(false);
  return Status::OK();
}

// --- Metrics ----------------------------------------------------------------

void MeasureKernels(MetricMap* out) {
  const dbtf::BoolKernels& k = dbtf::Kernels();
  constexpr std::size_t kWords = std::size_t{1} << 15;  // 256 KiB per operand
  std::vector<dbtf::BitWord> a(kWords), b(kWords);
  SplitMix64 rng(0x6b65726eULL);
  for (std::size_t w = 0; w < kWords; ++w) {
    a[w] = rng.Next();
    b[w] = rng.Next();
  }
  const dbtf::BitSpan sa(a.data(), kWords * 64), sb(b.data(), kWords * 64);
  // Calls go through the dispatched function table, so none is elided.
  auto gib_per_s = [](const std::function<std::int64_t()>& fn, double bytes) {
    std::int64_t calls = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
      for (int n = 0; n < 32; ++n) fn();
      calls += 32;
      elapsed = SecondsBetween(start, Clock::now());
    } while (elapsed < 0.2);
    return bytes * static_cast<double>(calls) / elapsed / (1024.0 * 1024 * 1024);
  };
  const double bytes = static_cast<double>(kWords * sizeof(dbtf::BitWord));
  (*out)["kernels.popcount_gib_s"] = {
      gib_per_s([&] { return k.popcount(sa); }, bytes), "GiB/s"};
  (*out)["kernels.and_popcount_gib_s"] = {
      gib_per_s([&] { return k.and_popcount(sa, sb); }, 2 * bytes), "GiB/s"};
}

/// Serve latency percentiles, with the sample count behind each, and the
/// closed-loop throughput.
void ServeMetrics(const ServeStream& stream, MetricMap* out) {
  static const char* const kKinds[] = {"membership", "fiber", "top", "update"};
  std::vector<double> reads;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::vector<double>& v = stream.latency[k];
    const std::string base = std::string("serve.") + kKinds[k];
    (*out)[base + "_p50_us"] = {Percentile(v, 50) * 1e6, "us"};
    (*out)[base + "_p99_us"] = {Percentile(v, 99) * 1e6, "us"};
    (*out)[base + "_samples"] = {static_cast<double>(v.size()), "count"};
    if (k < 3) reads.insert(reads.end(), v.begin(), v.end());
  }
  (*out)["serve.read_samples"] = {static_cast<double>(reads.size()), "count"};
  (*out)["serve_read_p50_us"] = {Percentile(reads, 50) * 1e6, "us"};
  (*out)["serve_read_p99_us"] = {Percentile(reads, 99) * 1e6, "us"};
  (*out)["serve_update_p50_us"] = (*out)["serve.update_p50_us"];
  (*out)["serve_update_p99_us"] = (*out)["serve.update_p99_us"];
  (*out)["serve_ops_per_s"] = {stream.ops_per_s, "ops/s"};
}

void EndToEndMetrics(const std::vector<Round>& rounds, MetricMap* out) {
  std::vector<double> setup, e2e, virt;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    e2e.push_back(r.e2e_s);
    virt.push_back(r.virtual_s);
  }
  (*out)["setup_s"] = {Median(setup), "s"};
  (*out)["e2e_s"] = {Median(e2e), "s"};
  (*out)["virtual_s"] = {Median(virt), "s"};
  // Later rounds only add heap fragmentation a one-shot run never sees.
  (*out)["peak_rss_mib"] = {rounds.front().peak_rss_mib, "MiB"};
}

struct LayerTime {
  const char* metric;
  const char* span;
};

constexpr LayerTime kLayerTimes[] = {
    {"tensor.read_s", "tensor.read"},
    {"tensor.write_s", "tensor.write"},
    {"dbtf.session_create_s", "dbtf.session_create"},
    {"dbtf.partition_build_s", "dbtf.partition_build"},
    {"dbtf.factorize_first_s", "dbtf.factorize_first"},
    {"modelselect.description_length_s", "modelselect.description_length"},
    {"dist.cluster_create_s", "dist.cluster_create"},
    {"dist.provision_s", "dist.provision"},
    {"serve.create_s", "serve.create"},
    {"serve.load_s", "serve.load"},
    {"bench.self_s", "round"},
};

struct LayerCount {
  const char* metric;
  const char* unit;
};

constexpr LayerCount kLayerCounts[] = {
    {"dbtf.iterations", "count"},
    {"dbtf.cells_changed", "count"},
    {"dbtf.cache_entries", "count"},
    {"dbtf.cache_bytes", "bytes"},
    {"dbtf.final_error", "cells"},
    {"dist.machine_s", "s"},
    {"dist.driver_s", "s"},
    {"dist.shuffle_bytes", "bytes"},
    {"dist.broadcast_bytes", "bytes"},
    {"dist.collect_bytes", "bytes"},
    {"dist.query_bytes", "bytes"},
    {"dist.shuffle_events", "count"},
    {"dist.broadcast_events", "count"},
    {"dist.collect_events", "count"},
    {"dist.query_events", "count"},
    {"dist.retries", "count"},
    {"serve.query_bytes_per_op", "bytes/op"},
    {"serve.failovers", "count"},
    {"serve.rebroadcasts", "count"},
};

/// Per-layer metrics of a traced run. A span name or counter the
/// workload's rounds never produced — a layer it does not call — is taken
/// from the probe instead.
void PerLayerMetrics(const Ctx& ctx, const std::vector<Round>& rounds,
                     const Round& probe, const ServeStream& serve,
                     double e2e_untraced, double e2e_traced, MetricMap* out) {
  // Self time per span name: median over the traced rounds of each round's
  // total.
  std::vector<std::map<std::string, double>> selfs;
  for (int r = 0; r < static_cast<int>(rounds.size()); ++r) {
    if (rounds[static_cast<std::size_t>(r)].traced) {
      selfs.push_back(ctx.tracer.SelfSeconds(r));
    }
  }
  const std::map<std::string, double> probe_self =
      ctx.tracer.SelfSeconds(kProbeRun);
  auto span_seconds = [&](const std::string& span) {
    std::vector<double> v;
    for (const auto& self : selfs) {
      const auto it = self.find(span);
      if (it != self.end()) v.push_back(it->second);
    }
    if (!v.empty()) return Median(v);
    const auto it = probe_self.find(span);
    return it == probe_self.end() ? 0.0 : it->second;
  };
  for (const LayerTime& t : kLayerTimes) {
    (*out)[t.metric] = {span_seconds(t.span), "s"};
  }
  // Later Factorize calls of a session; the probe and ingest-512 make one.
  const bool sweeps = !selfs.empty() && selfs.front().count("dbtf.factorize");
  (*out)["dbtf.factorize_s"] = {
      (*out)["dbtf.factorize_first_s"].first +
          (sweeps ? span_seconds("dbtf.factorize") : 0.0),
      "s"};
  // Counters are deterministic per round: the first round's.
  auto counter = [&](const std::string& name) {
    const Counters& own = rounds.front().counters;
    const Counters& src = own.count(name) ? own : probe.counters;
    const auto it = src.find(name);
    return it == src.end() ? 0.0 : it->second;
  };
  for (const LayerCount& n : kLayerCounts) {
    (*out)[n.metric] = {counter(n.metric), n.unit};
  }
  (*out)["tensor.read_mib_per_s"] = {counter("tensor.read_bytes") /
                                         (1024.0 * 1024.0) /
                                         (*out)["tensor.read_s"].first,
                                     "MiB/s"};
  ServeMetrics(serve, out);
  (*out)["bench.rounds"] = {static_cast<double>(rounds.size()), "count"};
  MeasureKernels(out);
  (*out)["bench.trace_overhead_pct"] = {
      (e2e_traced / e2e_untraced - 1.0) * 100.0, "%"};
  (*out)["failed_op_ratio"] = {static_cast<double>(ctx.failed) /
                                   static_cast<double>(ctx.attempted),
                               "ratio"};
}

}  // namespace

Status PrepareInputs(const RunOptions& options) {
  if (options.workload != "ingest-512") return Status::OK();
  const std::string path = IngestPath(options);
  if (std::filesystem::exists(path)) return Status::OK();
  // One seed's text at a time: drop other seeds' files (~15 MB each).
  std::filesystem::create_directories(options.data_dir);
  for (const auto& entry : std::filesystem::directory_iterator(options.data_dir)) {
    if (entry.path().filename().string().rfind("ingest-512-", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
  const Factors planted =
      RandomFactors(options.seed, kIngestDim, kIngestRank, kIngestDensity);
  return WriteTensorFile(path, kIngestDim, PlantedCells(planted));
}

Status RunWorkload(const RunOptions& options, Report* report) {
  Ctx ctx(options);
  std::filesystem::create_directories(options.work_dir);
  std::vector<Round> rounds;
  std::function<Status(bool, Round*)> round_fn;
  SparseTensor sweep_tensor;
  const std::string& w = options.workload;
  if (w == "ingest-512") {
    if (!std::filesystem::exists(IngestPath(options))) {
      return Status::FailedPrecondition("inputs not prepared");
    }
    report->inputs["tensor"] = "planted rank-10 512^3, factor density 0.1, no noise";
    report->inputs["text_bytes"] =
        std::to_string(std::filesystem::file_size(IngestPath(options)));
    report->inputs["calls"] =
        "ReadTensorText, Session::Create, Factorize(R=10, L=1, T=2, 4 inproc "
        "machines), WriteMatrixText x3";
    round_fn = [&](bool first, Round* r) { return IngestRound(&ctx, first, r); };
  } else if (w == "ranksweep-512-socket") {
    SplitMix64 rng(options.seed);
    Factors planted;
    for (BitMatrix& m : planted) {
      m = RandomFactor(&rng, kSweepDim, kSweepPlantedRank, kSweepDensity);
    }
    std::vector<Coord> cells = PlantedCells(planted);
    AddNoise(kSweepDim, kSweepAdditive, kSweepDestructive, &rng, &cells);
    DBTF_ASSIGN_OR_RETURN(sweep_tensor, ToTensor(kSweepDim, cells));
    report->inputs["tensor"] =
        "planted rank-20 512^3, factor density 0.08, 10% additive and 5% "
        "destructive noise";
    report->inputs["nnz"] = std::to_string(sweep_tensor.NumNonZeros());
    report->inputs["calls"] =
        "Session::Create on 4 socket workers, Factorize(R=8,16,24,32,40, "
        "L=4, T=2) + ComputeDescriptionLength each, WriteMatrixText x3 of "
        "the MDL-best rank";
    round_fn = [&](bool first, Round* r) {
      return SweepRound(&ctx, sweep_tensor, first, r);
    };
  } else {
    return Status::InvalidArgument("unknown workload '" + w + "'");
  }

  const Status ran = RunRounds(&ctx, round_fn, &rounds);
  report->attempted = ctx.attempted;
  report->failed = ctx.failed;
  report->rounds = static_cast<int>(rounds.size());
  if (!ran.ok()) {
    report->check_message = ran.ToString();
    return ran;
  }
  for (const Round& r : rounds) {
    report->round_figures.push_back(
        {{"traced", r.traced ? 1.0 : 0.0}, {"setup_s", r.setup_s},
         {"e2e_s", r.e2e_s}, {"virtual_s", r.virtual_s},
         {"peak_rss_mib", r.peak_rss_mib},
         {"iterations", r.counters.count("dbtf.iterations")
                            ? r.counters.at("dbtf.iterations")
                            : 0.0}});
  }
  const Round& first = rounds.front();
  report->factor_digest = first.factor_digest;
  report->final_error = first.final_error;

  std::vector<Round> untraced;
  std::vector<double> traced_e2e;
  for (const Round& r : rounds) {
    if (r.traced) {
      traced_e2e.push_back(r.e2e_s);
    } else {
      untraced.push_back(r);
    }
  }
  EndToEndMetrics(untraced.empty() ? rounds : untraced,
                  &report->end_to_end);
  if (options.trace) {
    Round probe;
    ServeStream serve;
    const Status probed = RunProbe(&ctx, &probe, &serve);
    report->attempted = ctx.attempted;
    report->failed = ctx.failed;
    if (!probed.ok()) {
      report->check_message = probed.ToString();
      return probed;
    }
    report->serve_digest = probe.serve_digest;
    PerLayerMetrics(ctx, rounds, probe, serve,
                    report->end_to_end.at("e2e_s").first, Median(traced_e2e),
                    &report->per_layer);
    report->trace_path = options.work_dir + "/trace.json";
    if (!ctx.tracer.WriteChromeTrace(report->trace_path)) {
      return Status::IoError("cannot write " + report->trace_path);
    }
  }
  report->correct = true;
  report->check_message = "outputs checked over " +
                          std::to_string(rounds.size()) + " rounds";
  return Status::OK();
}

}  // namespace perfbench
