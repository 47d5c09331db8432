// The benchmark's workloads. Each one generates its inputs from the seed,
// runs rounds of timed public calls into the program until the time budget
// is spent, checks the outputs, and fills a Report with every end-to-end
// metric and, on a traced run, every per-layer metric.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  ///< generated inputs, kept between runs
  std::string work_dir;  ///< outputs, sockets and the trace of this run
};

/// A metric value and its unit.
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

struct Report {
  bool correct = false;
  std::string check_message;  ///< why a check failed, or a summary
  std::int64_t attempted = 0;  ///< timed public calls made
  std::int64_t failed = 0;     ///< of those, calls that returned non-OK
  int rounds = 0;
  /// Output identities, compared against the recorded values by run.py.
  std::string factor_digest;  ///< FNV-1a over every A/B/C (hex), or ""
  std::int64_t final_error = -1;  ///< summed over Factorize calls, or -1
  std::string serve_digest;   ///< FNV-1a over the normalized responses
  /// Input shape and provenance for the record ("nnz", "dim", ...).
  std::map<std::string, std::string> inputs;
  MetricMap end_to_end;
  MetricMap per_layer;  ///< filled on traced runs only
  /// Per-round figures (set-up, end-to-end, serve throughput), for the
  /// record of how steady the run was.
  std::vector<std::map<std::string, double>> round_figures;
  std::string trace_path;
};

/// Writes the workload's on-disk inputs under options.data_dir if they are
/// not there yet (only ingest-1024 has any). Not timed.
dbtf::Status PrepareInputs(const RunOptions& options);

/// Runs the workload. A non-OK status means the run could not complete;
/// `report` then says how far it got.
dbtf::Status RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
