#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "stats.hpp"

namespace perfbench {

std::uint64_t SeededRng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeededRng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t SeededRng::range(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto width = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next() % width);
}

std::vector<std::uint32_t> seeded_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  SeededRng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

Schedule build_schedule(const ScheduleConfig& config,
                        std::span<const JobShape> shapes) {
  Schedule schedule;
  const std::size_t n = shapes.size();
  schedule.jobs.resize(n);
  SeededRng rng(config.seed);

  // Arrivals: exponential gaps, rescaled so the n-th arrival would land
  // exactly at span_ns — the count and span are fixed, the bursts random.
  std::vector<double> cumulative(n + 1, 0.0);
  for (std::size_t i = 1; i <= n; ++i) {
    cumulative[i] = cumulative[i - 1] - std::log(1.0 - rng.uniform());
  }
  const double total = n > 0 ? cumulative[n] : 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    schedule.jobs[i].arrival_ns = static_cast<std::int64_t>(
        cumulative[i + 1] / total * static_cast<double>(config.span_ns) *
        static_cast<double>(n) / static_cast<double>(n + 1));
  }

  // Churn: exactly round(n * share) jobs, picked by a seeded permutation.
  const auto churned = static_cast<std::size_t>(
      std::llround(config.churn_share * static_cast<double>(n)));
  const std::vector<std::uint32_t> order =
      seeded_permutation(n, rng.next());
  for (std::size_t k = 0; k < churned && k < n; ++k) {
    schedule.jobs[order[k]].churned = true;
  }

  const std::int64_t batch = std::max<std::uint32_t>(config.batch_samples, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ScheduledJob& job = schedule.jobs[i];
    const JobShape& shape = shapes[i];
    const auto index = static_cast<std::uint32_t>(i);
    const std::int64_t per_tick = std::max<std::uint32_t>(shape.samples_per_tick, 1);
    job.transport =
        static_cast<std::uint8_t>(i % std::max<std::uint8_t>(config.transports, 1));
    job.ticks_sent = shape.ticks;
    if (job.churned) {
      const std::int32_t last = std::min(config.ready_tick, shape.ticks) - 1;
      job.ticks_sent = static_cast<std::int32_t>(
          rng.range(std::min(config.churn_min_tick, last), last));
    }
    const std::int64_t total = job.ticks_sent * per_tick;
    // Batch b goes out when the second of its last sample has ended.
    const auto batch_sent = [&](std::int64_t b) {
      const std::int64_t last_sample = std::min(total, (b + 1) * batch) - 1;
      return job.arrival_ns + (last_sample / per_tick + 1) * config.tick_ns;
    };
    schedule.frames.push_back({job.arrival_ns, index, kOpenFrame});
    // A job that streams to its end flushes its last, partial batch at
    // the close; a churned one stops with full batches only.
    const std::int64_t batches = job.churned ? total / batch : (total + batch - 1) / batch;
    for (std::int64_t b = 0; b < batches; ++b) {
      schedule.frames.push_back({batch_sent(b), index, static_cast<std::uint32_t>(b + 1)});
    }
    job.close_ns = job.arrival_ns + job.ticks_sent * config.tick_ns;
    schedule.frames.push_back({job.close_ns, index, kCloseFrame});
    job.trigger_ns = job.close_ns;
    if (!job.churned && job.ticks_sent > config.ready_tick) {
      const std::int64_t ready_sample = (config.ready_tick + 1) * per_tick - 1;
      job.trigger_frame = static_cast<std::uint32_t>(ready_sample / batch + 1);
      job.trigger_ns = batch_sent(ready_sample / batch);
    }
  }

  std::sort(schedule.frames.begin(), schedule.frames.end(),
            [](const Frame& a, const Frame& b) {
              return std::tie(a.sched_ns, a.job, a.number) <
                     std::tie(b.sched_ns, b.job, b.number);
            });
  return schedule;
}

LagSummary summarize_lag(const std::vector<double>& lag_ns, double p50_bound_us) {
  LagSummary summary;
  summary.sends = lag_ns.size();
  if (lag_ns.empty()) return summary;
  std::vector<double> us;
  us.reserve(lag_ns.size());
  for (const double lag : lag_ns) us.push_back(std::max(lag, 0.0) / 1000.0);
  summary.max_us = *std::max_element(us.begin(), us.end());
  summary.p50_us = percentile(us, 50.0);
  summary.p99_us = percentile(std::move(us), 99.0);
  summary.valid = summary.p50_us <= p50_bound_us;
  return summary;
}

}  // namespace perfbench
