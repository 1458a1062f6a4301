/// \file selftest.cpp
/// \brief Self-tests of the benchmark's own math: percentiles and their
/// per-segment medians, span coverage, the open-loop schedule and its lag
/// accounting, and the verdict parity checker.
///
///   python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "parity.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void test_percentiles() {
  CHECK(percentile({}, 50.0) == 0.0);
  CHECK(near(percentile({7.0}, 99.0), 7.0));
  CHECK(near(percentile({1, 2, 3, 4}, 50.0), 2.5));
  CHECK(near(percentile({4, 1, 3, 2}, 0.0), 1.0));
  CHECK(near(percentile({4, 1, 3, 2}, 100.0), 4.0));
  // numpy.percentile([1..10], 99) == 9.91
  CHECK(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99.0), 9.91));
  CHECK(near(median({5, 1, 3}), 3.0));

  // Three segments of three: one disturbed stretch moves one segment.
  const std::vector<double> timeline = {1, 2, 3, 100, 200, 300, 4, 5, 6};
  const auto p50s = segment_percentiles(timeline, 3, 50.0);
  CHECK(p50s.size() == 3 && near(p50s[0], 2) && near(p50s[1], 200) && near(p50s[2], 5));
  CHECK(near(median(p50s), 5.0));
  CHECK(segment_percentiles({}, 3, 50.0).empty());
  CHECK(segment_percentiles({7, 8}, 5, 50.0).size() == 2);  // never empty segments
  const auto uneven = segment_percentiles({1, 2, 3, 4, 5}, 2, 0.0);
  CHECK(uneven.size() == 2 && near(uneven[0], 1) && near(uneven[1], 3));
}

void test_spans() {
  CHECK(covered_ns({}, 0, 10) == 0);
  CHECK(covered_ns({{0, 10}}, 0, 10) == 10);
  CHECK(covered_ns({{2, 5}, {4, 8}, {9, 20}}, 0, 10) == 7);  // [2,8) + [9,10)
  CHECK(covered_ns({{-5, 3}, {12, 15}}, 0, 10) == 3);
  CHECK(covered_ns({{5, 2}}, 0, 10) == 0);  // inverted ignored
  CHECK(covered_ns({{1, 2}}, 10, 0) == 0);  // empty window

  SpanLog log("test");
  log.add("x", 0, 10, 1, 4);
  log.add("y", 0, 5, 1, 1);
  log.add("x", 20, 25, 2, 6);
  const auto [ns, items] = log.totals("x");
  CHECK(ns == 15 && items == 10);
  CHECK(log.durations("y").size() == 1);
}

void test_schedule() {
  ScheduleConfig config;
  config.seed = 7;
  config.job_count = 40;
  config.span_ns = 1'000'000'000;
  config.tick_ns = 1'000'000;
  config.batch_samples = 256;
  config.ready_tick = 119;
  config.churn_share = 0.25;
  config.transports = 3;
  std::vector<JobShape> shapes;
  for (std::size_t i = 0; i < config.job_count; ++i) {
    shapes.push_back({i % 5 == 0 ? 32u : 4u, i % 7 == 0 ? 100 : 185});
  }
  const Schedule a = build_schedule(config, shapes);
  const Schedule b = build_schedule(config, shapes);
  CHECK(a.frames.size() == b.frames.size());
  bool same = true;
  for (std::size_t k = 0; k < a.frames.size(); ++k) {
    same = same && a.frames[k].sched_ns == b.frames[k].sched_ns &&
           a.frames[k].job == b.frames[k].job && a.frames[k].number == b.frames[k].number;
  }
  CHECK(same);  // same seed, same schedule

  config.seed = 8;
  const Schedule c = build_schedule(config, shapes);
  CHECK(c.jobs[0].arrival_ns != a.jobs[0].arrival_ns);

  bool sorted = true;
  for (std::size_t k = 1; k < a.frames.size(); ++k) {
    sorted = sorted && a.frames[k - 1].sched_ns <= a.frames[k].sched_ns;
  }
  CHECK(sorted);

  std::size_t churned = 0;
  std::size_t expected_frames = 0;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const ScheduledJob& job = a.jobs[j];
    const std::int64_t per_tick = shapes[j].samples_per_tick;
    const std::int64_t samples = job.ticks_sent * per_tick;
    CHECK(job.arrival_ns > 0 && job.arrival_ns < config.span_ns);
    CHECK(job.transport == j % 3);
    CHECK(job.close_ns == job.arrival_ns + job.ticks_sent * config.tick_ns);
    churned += job.churned ? 1 : 0;
    // Open + close + the batches: whole ones only for a churned job.
    expected_frames += 2 + static_cast<std::size_t>(
                               job.churned ? samples / 256 : (samples + 255) / 256);
    if (job.churned) {
      CHECK(job.ticks_sent < config.ready_tick);
      CHECK(job.trigger_frame == kCloseFrame && job.trigger_ns == job.close_ns);
    } else if (shapes[j].ticks <= config.ready_tick) {
      CHECK(job.trigger_frame == kCloseFrame && job.trigger_ns == job.close_ns);
    } else {
      // The batch holding the last node's sample of second 119 fires the
      // verdict, once the second of its own last sample has ended.
      const std::int64_t ready_sample = 120 * per_tick - 1;
      const std::int64_t batch = ready_sample / 256;
      CHECK(job.trigger_frame == batch + 1);
      const std::int64_t last_tick = ((batch + 1) * 256 - 1) / per_tick;
      CHECK(job.trigger_ns == job.arrival_ns + (last_tick + 1) * config.tick_ns);
      std::size_t found = 0;
      for (const Frame& frame : a.frames) {
        if (frame.job == j && frame.number == job.trigger_frame) {
          found += frame.sched_ns == job.trigger_ns ? 1 : 0;
        }
      }
      CHECK(found == 1);
    }
    CHECK(job.close_ns >= job.trigger_ns);
  }
  CHECK(churned == 10);  // exactly round(40 * 0.25)
  CHECK(a.frames.size() == expected_frames);
  // 4 nodes: 64 s per batch, the window's last sample in batch 1 (sent at
  // 128 s); 32 nodes: 8 s per batch, and second 119 ends batch 14.
  std::size_t pinned = 0;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const ScheduledJob& job = a.jobs[j];
    if (job.churned || shapes[j].ticks <= config.ready_tick) continue;
    const bool wide = shapes[j].samples_per_tick == 32;
    CHECK(job.trigger_frame == (wide ? 15u : 2u));
    CHECK(job.trigger_ns - job.arrival_ns == (wide ? 120 : 128) * config.tick_ns);
    ++pinned;
  }
  CHECK(pinned > 0);

  // Each job opens first, sends its batches in order and closes last.
  std::vector<std::int64_t> next(config.job_count, 0);
  bool ordered = true;
  for (const Frame& frame : a.frames) {
    std::int64_t& expect = next[frame.job];
    if (frame.number == kCloseFrame) {
      ordered = ordered && expect > 0;
      expect = -1;
    } else {
      ordered = ordered && expect >= 0 && frame.number == expect;
      ++expect;
    }
  }
  CHECK(ordered);

  const std::vector<std::uint32_t> perm = seeded_permutation(10, 3);
  std::vector<bool> seen(10, false);
  for (const auto v : perm) seen[v] = true;
  bool all = true;
  for (const bool s : seen) all = all && s;
  CHECK(all);
}

void test_lag() {
  const LagSummary empty = summarize_lag({}, 100.0);
  CHECK(empty.valid && empty.sends == 0);
  std::vector<double> lags(100, 10'000.0);  // 10 us
  for (std::size_t i = 51; i < 100; ++i) lags[i] = 5'000'000.0;  // 49 late by 5 ms
  const LagSummary ok = summarize_lag(lags, 1000.0);
  CHECK(near(ok.p50_us, 10.0));
  CHECK(ok.max_us == 5000.0);
  CHECK(near(ok.p99_us, 5000.0));
  CHECK(ok.valid);  // stragglers, however late, do not void a pass
  lags[50] = 5'000'000.0;  // half of the sends late: the generator fell behind
  CHECK(!summarize_lag(lags, 1000.0).valid);
  std::vector<double> late(100, 2'000'000.0);
  late[0] = -50.0;  // early sends count as on time
  const LagSummary bad = summarize_lag(late, 1000.0);
  CHECK(!bad.valid && near(bad.p50_us, 2000.0) && near(bad.max_us, 2000.0));
}

void test_parity() {
  efd::ingest::WireVerdict reference;
  reference.recognized = true;
  reference.matched = 4;
  reference.fingerprints = 4;
  reference.application = "ft";
  reference.label = "ft_X";
  CHECK(check_verdict(reference, reference) == VerdictOutcome::kMatch);
  CHECK(check_verdict(reference, std::nullopt) == VerdictOutcome::kMissing);
  efd::ingest::WireVerdict other = reference;
  other.label = "ft_Y";
  CHECK(check_verdict(reference, other) == VerdictOutcome::kMismatch);
  CHECK(describe_difference(reference, other) == "label ft_Y (reference ft_X)");
  CHECK(describe_difference(reference, reference).empty());

  ParityTally tally;
  tally.add(VerdictOutcome::kMatch);
  tally.add(VerdictOutcome::kMissing);
  tally.add(VerdictOutcome::kMismatch);
  tally.add(VerdictOutcome::kMatch);
  CHECK(tally.attempted == 4 && tally.failed() == 2);
  CHECK(near(tally.failed_ratio(), 0.5));
  CHECK(ParityTally{}.failed_ratio() == 0.0);

  CHECK(near(macro_f_score({"a", "b"}, {"a", "b"}), 1.0));
  CHECK(macro_f_score({"a", "b"}, {"b", "a"}) == 0.0);
  CHECK(macro_f_score({}, {}) == 0.0);
}

}  // namespace

int main() {
  test_percentiles();
  test_spans();
  test_schedule();
  test_lag();
  test_parity();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
