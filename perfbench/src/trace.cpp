#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::pair<std::int64_t, std::uint64_t> SpanLog::totals(const char* name) const {
  std::int64_t ns = 0;
  std::uint64_t items = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) != 0) continue;
    ns += span.duration();
    items += span.items;
  }
  return {ns, items};
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.duration()));
    }
  }
  return out;
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                        std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return 0;
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::erase_if(intervals, [](const auto& iv) { return iv.second <= iv.first; });
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

void write_spans_jsonl(std::ostream& out, std::span<const SpanLog* const> logs) {
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      out << "{\"site\":\"" << log->site() << "\",\"id\":" << i
          << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":";
      if (span.parent == kNoParent) {
        out << "null";
      } else {
        out << span.parent;
      }
      out << ",\"trace_id\":" << span.trace_id << ",\"items\":" << span.items
          << "}\n";
    }
  }
}

}  // namespace perfbench
