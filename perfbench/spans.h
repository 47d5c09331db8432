// Bench-side spans around the public calls the benchmark times.
//
// Every timed call is bracketed by a Span. The Span always measures its own
// wall time (the end-to-end metrics need it whether or not tracing is on);
// only when the Tracer is enabled does it also keep a record (name, start,
// end, parent, run id) in memory. At exit the records are written as Chrome
// trace-event JSON and folded into per-name self times: a span's duration
// minus the part of it that its child spans cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;  ///< since the tracer's epoch
  std::int64_t end_ns;
  int parent;  ///< index of the enclosing record, -1 at the top
  int run;     ///< round of the workload the span belongs to
};

class Tracer {
 public:
  Tracer();

  /// Recording on/off; timing is unaffected.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  /// Run id stamped on the spans recorded from now on.
  void set_run(int run) { run_ = run; }

  const std::vector<SpanRecord>& records() const { return records_; }

  /// Self seconds summed per span name, over the records of one run id.
  std::map<std::string, double> SelfSeconds(int run) const;

  /// Writes every record as Chrome trace-event JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  int Open(const char* name, Clock::time_point start);
  void Close(int index, Clock::time_point end);

  bool enabled_ = false;
  int run_ = 0;
  Clock::time_point epoch_;
  std::vector<SpanRecord> records_;
  std::vector<int> open_;  ///< stack of open record indexes
};

/// Times one call; records it on the tracer while tracing is enabled.
class Span {
 public:
  Span(Tracer* tracer, const char* name);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop();

  Clock::time_point start() const { return start_; }
  Clock::time_point end() const { return end_; }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  Clock::time_point end_;
  int index_ = -1;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
