#pragma once
/// \file schedule.hpp
/// \brief Seeded open-loop traffic schedule and the generator-lag
/// accounting that decides whether a paced run is valid.
///
/// Jobs arrive on a seeded schedule that does not wait for the server:
/// exponential inter-arrival gaps, rescaled so exactly `job_count` jobs
/// fall inside `span_ns` (the burstiness is random, the offered load is
/// not). A job streams as the repository's own senders frame it
/// (`efd_cli replay` over ingest::TransportFeed): every node's samples
/// for second t, then second t + 1, ..., cut into batches of
/// `batch_samples`. A batch is sent when the second of its last sample
/// has ended, `arrival + (tick + 1) * tick_ns`, since a sampler cannot
/// ship a reading before taking it. A job's trigger, the instant its
/// verdict latency is measured from, is the scheduled send of the batch
/// holding the last sample of its last window, or of its kCloseJob when
/// the job ends first (churned jobs, or series shorter than the window).

#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same schedule on every platform and standard library.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform integer in [lo, hi] (inclusive); lo when hi < lo.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::uint32_t> seeded_permutation(std::size_t n, std::uint64_t seed);

/// The part of a job the schedule needs: samples per second (nodes x
/// metrics) and how many seconds (ticks) its series hold.
struct JobShape {
  std::uint32_t samples_per_tick = 1;
  std::int32_t ticks = 0;
};

struct ScheduleConfig {
  std::uint64_t seed = 1;
  std::size_t job_count = 1;
  std::int64_t span_ns = 1;    ///< arrivals fall in (0, span_ns)
  std::int64_t tick_ns = 1'000'000;
  std::uint32_t batch_samples = 256;  ///< samples per kSampleBatch frame
  /// Tick whose sample completes a job's last window (max interval end - 1).
  std::int32_t ready_tick = 119;
  /// Share of jobs closed before their window completes (exact count).
  double churn_share = 0.0;
  /// Earliest tick a churned job may close at.
  std::int32_t churn_min_tick = 10;
  /// Transports the jobs are dealt over, round robin by job index.
  std::uint8_t transports = 1;
};

/// Frame numbers within a job: 0 is the kOpenJob, batch b is b + 1, and
/// the kCloseJob is kCloseFrame (so a job's frames sort in sending order).
inline constexpr std::uint32_t kOpenFrame = 0;
inline constexpr std::uint32_t kCloseFrame = UINT32_MAX;

struct ScheduledJob {
  std::int64_t arrival_ns = 0;
  /// Seconds streamed: all of them, or for a churned job the second it
  /// closes in (samples still unbatched then are never sent).
  std::int32_t ticks_sent = 0;
  bool churned = false;
  std::uint8_t transport = 0;
  std::uint32_t trigger_frame = kCloseFrame;  ///< frame that should fire the verdict
  std::int64_t trigger_ns = 0;  ///< its scheduled send
  std::int64_t close_ns = 0;    ///< scheduled kCloseJob send
};

/// One frame on the schedule.
struct Frame {
  std::int64_t sched_ns = 0;
  std::uint32_t job = 0;
  std::uint32_t number = 0;  ///< kOpenFrame, batch + 1, or kCloseFrame
};

struct Schedule {
  std::vector<ScheduledJob> jobs;
  std::vector<Frame> frames;  ///< sorted by sched_ns (ties: job, number)
};

/// Builds the schedule for jobs of the given shapes (one per job, in job
/// order). Deterministic in (config, shapes).
Schedule build_schedule(const ScheduleConfig& config,
                        std::span<const JobShape> shapes);

/// The open-loop validity check. Verdict latencies run from each trigger
/// frame's scheduled send, so a late generator adds its lateness to them.
/// A pass is valid while its median trigger send is late by at most this
/// share of its median verdict latency: the generator then kept to the
/// schedule, and its lateness moves the reported median by about that
/// share at most. Stragglers (host steal on a shared VM delays a few
/// percent of the sends by milliseconds) reach only the upper
/// percentiles, which are reported without a bound.
inline constexpr double kLagShareOfLatency = 0.1;

/// How late a generator ran against its schedule.
struct LagSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  std::size_t sends = 0;
  bool valid = true;  ///< p50 within the bound the sends were checked against
};

/// Summarises per-send lags (actual send − scheduled send, ns; negative
/// values, which a correct generator never produces, count as 0) and
/// checks their median against \p p50_bound_us.
LagSummary summarize_lag(const std::vector<double>& lag_ns, double p50_bound_us);

}  // namespace perfbench
