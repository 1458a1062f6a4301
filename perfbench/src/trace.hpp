#pragma once
/// \file trace.hpp
/// \brief In-memory spans recorded around the benchmark's calls into the
/// serve-path layers, written out once the run ends.
///
/// Each recording site (a thread, or a decorator only one thread calls)
/// owns its own SpanLog, so recording takes no lock. A span names the
/// layer call, its steady-clock interval, the span that caused it (an
/// index into the same log, or kNoParent) and a trace id (the job id,
/// or 0 for a call that served many jobs at once).

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds — the epoch the service's own JobVerdict
/// stamps use, so benchmark spans and program stamps compare directly.
std::int64_t now_ns();

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t trace_id = 0;
  std::uint64_t items = 0;  ///< work units the call handled (samples, keys…)

  std::int64_t duration() const noexcept { return end_ns - start_ns; }
};

class SpanLog {
 public:
  explicit SpanLog(std::string site = {}) : site_(std::move(site)) {}

  /// Appends a span; returns its index (the id children use as parent).
  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t trace_id = 0,
                    std::uint64_t items = 0,
                    std::uint32_t parent = kNoParent) {
    spans_.push_back({name, start_ns, end_ns, parent, trace_id, items});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const Span& at(std::uint32_t index) const { return spans_.at(index); }
  const std::string& site() const noexcept { return site_; }

  /// Sum of durations and of items over every span named \p name.
  std::pair<std::int64_t, std::uint64_t> totals(const char* name) const;
  /// Durations (ns) of every span named \p name.
  std::vector<double> durations(const char* name) const;

 private:
  std::string site_;
  std::vector<Span> spans_;
};

/// Nanoseconds of [lo, hi) covered by the union of \p intervals (each a
/// [start, end) pair; empty or inverted ones are ignored).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                        std::int64_t lo, std::int64_t hi);

/// Writes every span of every log as one JSON object per line.
void write_spans_jsonl(std::ostream& out, std::span<const SpanLog* const> logs);

}  // namespace perfbench
