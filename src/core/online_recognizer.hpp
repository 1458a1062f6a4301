#pragma once
/// \file online_recognizer.hpp
/// \brief Streaming recognition during execution — the deployment mode the
/// paper motivates ("recognize known applications *during* execution")
/// but evaluates offline. Samples arrive one tick at a time from the
/// monitoring path; the verdict fires as soon as every fingerprint window
/// has closed (at t = 120 s in the paper's configuration), using bounded
/// per-stream state.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dictionary_view.hpp"
#include "core/matcher.hpp"
#include "core/recognition_scratch.hpp"

namespace efd::core {

/// Sentinel slot for metrics the dictionary does not fingerprint.
inline constexpr std::uint32_t kNoMetricSlot = 0xFFFFFFFFu;

/// Incremental interval-mean accumulator for one (node, metric) stream.
/// This is the scalar reference form of the accumulation semantics; the
/// recognizer itself stores every window as SoA lanes (contiguous
/// sum/count/tick arrays fed through core/rounding_kernel's
/// accumulate_lanes) and test_hot_path asserts the lane kernel matches
/// this class bit for bit.
class WindowAccumulator {
 public:
  explicit WindowAccumulator(telemetry::Interval interval) : interval_(interval) {}

  /// Feeds the sample at integer second \p t (monotonically increasing).
  void push(int t, double value) noexcept;

  telemetry::Interval interval() const noexcept { return interval_; }
  bool complete() const noexcept;
  std::size_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  int last_t() const noexcept { return last_t_; }

  /// Mean over the samples received inside the window so far.
  double mean() const noexcept;

  /// Snapshot restore: overwrites the incremental state wholesale. The
  /// caller (OnlineRecognizer::import_state) owns consistency.
  void restore_state(double sum, std::size_t count, int last_t) noexcept {
    sum_ = sum;
    count_ = count;
    last_t_ = last_t;
  }

 private:
  telemetry::Interval interval_;
  double sum_ = 0.0;
  std::size_t count_ = 0;
  int last_t_ = -1;
};

/// Streaming recognizer over a trained dictionary view (single-threaded
/// Dictionary or concurrent ShardedDictionary). One instance watches one
/// job; it is not internally synchronized — RecognitionService wraps
/// each stream in its own lock to multiplex jobs across threads.
class OnlineRecognizer {
 public:
  /// \param dictionary trained dictionary (borrowed; must outlive).
  /// \param node_count nodes of the job being watched.
  OnlineRecognizer(const DictionaryView& dictionary, std::uint32_t node_count);

  /// Feeds one sample. Ignores metrics the dictionary does not fingerprint.
  void push(std::uint32_t node_id, std::string_view metric_name, int t,
            double value);

  /// Resolves a metric name to its dictionary slot once, so steady-state
  /// feeding can use push_slot() and skip the per-sample string compare.
  /// Returns kNoMetricSlot for metrics the dictionary does not
  /// fingerprint.
  std::uint32_t metric_slot(std::string_view metric_name) const noexcept;

  /// Name of a slot returned by metric_slot(); the empty string for
  /// kNoMetricSlot or out-of-range slots.
  const std::string& metric_name(std::uint32_t slot) const noexcept;

  /// Slot-addressed push — the allocation- and comparison-free form of
  /// push(). Out-of-range slots and nodes are ignored.
  void push_slot(std::uint32_t node_id, std::uint32_t slot, int t,
                 double value) noexcept;

  /// True once every (node, metric, interval) window has closed. O(1):
  /// maintained as a counter of completed windows.
  bool ready() const noexcept;

  /// Verdict; available (non-nullopt) once ready(). Computed lazily and
  /// cached. Identical to the offline Matcher result for the same data.
  std::optional<RecognitionResult> result() const;

  /// Seconds still missing until the last window closes (0 when ready).
  int seconds_until_ready(int current_t) const noexcept;

  std::uint32_t node_count() const noexcept { return node_count_; }

  /// One accumulator's incremental state, as it travels through an
  /// EFD-SNAP-V1 service snapshot (see service_snapshot.hpp).
  struct AccumulatorState {
    double sum = 0.0;
    std::uint64_t count = 0;
    std::int32_t last_t = -1;
  };

  /// Flattens every accumulator's state in deterministic (node, metric,
  /// interval) order — the snapshot serialization order.
  std::vector<AccumulatorState> export_state() const;

  /// Inverse of export_state on a freshly constructed recognizer over
  /// the same config/node count. Throws std::invalid_argument when the
  /// state count does not match this recognizer's accumulator layout.
  void import_state(const std::vector<AccumulatorState>& states);

 private:
  /// Flat lane index of window (node, metric slot, interval).
  std::size_t lane_index(std::uint32_t node, std::size_t slot,
                         std::size_t interval) const noexcept {
    return (static_cast<std::size_t>(node) * metric_count_ + slot) *
               interval_count_ +
           interval;
  }
  double lane_mean(std::size_t w) const noexcept {
    return counts_[w] > 0 ? sums_[w] / static_cast<double>(counts_[w]) : 0.0;
  }

  const DictionaryView* dictionary_;
  std::uint32_t node_count_;
  std::size_t metric_count_ = 0;
  std::size_t interval_count_ = 0;
  /// Window state in SoA form: one lane per (node, metric, interval)
  /// window at lane_index() — contiguous per (node, metric) block, so
  /// push_slot feeds a whole block through accumulate_lanes in one
  /// vectorizable pass instead of walking an AoS accumulator list.
  std::vector<double> sums_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::int32_t> last_ts_;
  /// Per-interval window bounds, shared by every (node, metric) block
  /// (the dictionary config's interval list, in order).
  std::vector<std::int32_t> interval_begins_;
  std::vector<std::int32_t> interval_ends_;
  /// Windows completed so far out of windows_total_ — keeps ready() O(1)
  /// on the per-sample path (it used to walk every accumulator).
  std::size_t windows_complete_ = 0;
  std::size_t windows_total_ = 0;
  /// Reused fingerprint arena + vote arrays for result(); makes the
  /// verdict computation allocation-free after the first call.
  mutable RecognitionScratch scratch_;
  mutable std::optional<RecognitionResult> cached_;
};

}  // namespace efd::core
