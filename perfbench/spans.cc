#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

int Tracer::Open(const char* name, Clock::time_point start) {
  const int parent = open_.empty() ? -1 : open_.back();
  const auto start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  records_.push_back({name, start_ns, start_ns, parent, run_});
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int index, Clock::time_point end) {
  records_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  // Spans close in LIFO order; tolerate a missed close by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, double> Tracer::SelfSeconds(int run) const {
  // Children of each record, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      records_.size());
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    if (r.run != run) continue;
    // Union of the child intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = r.start_ns;
    for (const auto& [s, e] : kids) {
      const std::int64_t lo = std::max(s, cursor);
      const std::int64_t hi = std::min(e, r.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[r.name] += static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"run\": %d}}%s\n",
                 r.name, static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                 r.parent, r.run, i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()), end_(start_) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    index_ = tracer_->Open(name, start_);
  }
}

double Span::Stop() {
  if (!stopped_) {
    stopped_ = true;
    end_ = Clock::now();
    if (index_ >= 0) tracer_->Close(index_, end_);
  }
  return SecondsBetween(start_, end_);
}

}  // namespace perfbench
