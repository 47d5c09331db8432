// The repository benchmark's binary (see README.md in this directory).
//
//   perfbench prepare --workload W --seed N --data-dir D
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data-dir D --work-dir D --result PATH
//
// `prepare` writes the workload's on-disk inputs (untimed, in its own
// process so their generation does not count toward peak RSS). `run` times
// the workload and writes a JSON result — metrics, output digests, host —
// that run.py checks and reduces to the benchmark's one-line report.

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/kernels/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteMetrics(std::FILE* f, const char* key, const MetricMap& metrics) {
  std::fprintf(f, "  %s: {", Quote(key).c_str());
  const char* sep = "\n";
  for (const auto& [name, value] : metrics) {
    std::fprintf(f, "%s    %s: {\"value\": %.17g, \"unit\": %s}", sep,
                 Quote(name).c_str(), value.first, Quote(value.second).c_str());
    sep = ",\n";
  }
  std::fprintf(f, "\n  },\n");
}

bool WriteResult(const std::string& path, const RunOptions& options,
                 const Report& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
               Quote(options.workload).c_str(),
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f,
               "  \"host\": {\"cpu\": %s, \"nproc\": %u, \"kernel_backend\": "
               "%s, \"build_type\": %s, \"compiler\": %s},\n",
               Quote(CpuModel()).c_str(), std::thread::hardware_concurrency(),
               Quote(dbtf::KernelBackendName(dbtf::ActiveKernelBackend())).c_str(),
               Quote(PERFBENCH_BUILD_TYPE).c_str(),
               Quote(PERFBENCH_COMPILER).c_str());
  std::fprintf(f, "  \"inputs\": {");
  const char* sep = "";
  for (const auto& [k, v] : r.inputs) {
    std::fprintf(f, "%s%s: %s", sep, Quote(k).c_str(), Quote(v).c_str());
    sep = ", ";
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"round_figures\": [");
  sep = "\n";
  for (const auto& figures : r.round_figures) {
    std::fprintf(f, "%s    {", sep);
    const char* inner = "";
    for (const auto& [k, v] : figures) {
      std::fprintf(f, "%s%s: %.17g", inner, Quote(k).c_str(), v);
      inner = ", ";
    }
    std::fprintf(f, "}");
    sep = ",\n";
  }
  std::fprintf(f, "\n  ],\n");
  WriteMetrics(f, "end_to_end", r.end_to_end);
  WriteMetrics(f, "per_layer", r.per_layer);
  std::fprintf(f,
               "  \"rounds\": %d,\n  \"attempted\": %lld,\n  \"failed\": %lld,"
               "\n  \"factor_digest\": %s,\n  \"final_error\": %lld,\n"
               "  \"serve_digest\": %s,\n  \"trace_path\": %s,\n"
               "  \"correct\": %s,\n  \"message\": %s\n}\n",
               r.rounds, static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed), Quote(r.factor_digest).c_str(),
               static_cast<long long>(r.final_error),
               Quote(r.serve_digest).c_str(), Quote(r.trace_path).c_str(),
               r.correct ? "true" : "false", Quote(r.check_message).c_str());
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --data-dir D [--work-dir D] "
               "[--result PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RunOptions options;
  std::string result_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--result") {
      result_path = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.data_dir.empty()) return Usage();

  if (command == "prepare") {
    const dbtf::Status st = PrepareInputs(options);
    if (!st.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run" || options.work_dir.empty() || result_path.empty()) {
    return Usage();
  }
  Report report;
  const dbtf::Status st = RunWorkload(options, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
  }
  if (!WriteResult(result_path, options, report)) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  return st.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
