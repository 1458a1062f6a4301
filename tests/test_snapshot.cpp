/// \file test_snapshot.cpp
/// \brief EFD-SNAP-V1 service snapshot/restore tests: mid-stream
/// round-trips with verdict parity and stats continuity, pending-verdict
/// survival, epoch continuity across hot-swaps, concurrent
/// snapshot-under-traffic consistency (TSan material), and fuzz-style
/// hostile-input tests for the decoder — truncated, corrupted, and
/// adversarial length-prefixed sections must never crash, over-read, or
/// over-allocate, mirroring test_wire_format.cpp's fuzz discipline.

#include "core/online/service_snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/online/recognition_service.hpp"
#include "core/trainer.hpp"
#include "util/binary_io.hpp"

namespace {

using namespace efd;
using namespace efd::core;

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

class SnapshotFixture : public ::testing::Test {
 protected:
  SnapshotFixture() : dataset_({"nr_mapped_vmstat"}) {
    add(1, "ft", 6000.0);
    add(2, "mg", 6100.0);
    dictionary_ = train_dictionary(dataset_, config_of());
  }

  void add(std::uint64_t id, const std::string& app, double level) {
    telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  RecognitionService make_service(RecognitionServiceConfig config = {}) {
    return RecognitionService(ShardedDictionary::from_dictionary(dictionary_, 8),
                              config);
  }

  /// Streams ticks [from, to) of a constant-level job into a service.
  static void stream_range(RecognitionService& service, std::uint64_t job,
                           double level, int from, int to) {
    for (int t = from; t < to; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        service.push(job, node, "nr_mapped_vmstat", t, level);
      }
    }
  }

  static void expect_same_result(const RecognitionResult& a,
                                 const RecognitionResult& b,
                                 const std::string& context) {
    EXPECT_EQ(a.recognized, b.recognized) << context;
    EXPECT_EQ(a.prediction(), b.prediction()) << context;
    EXPECT_EQ(a.label_prediction(), b.label_prediction()) << context;
    EXPECT_EQ(a.applications, b.applications) << context;
    EXPECT_EQ(a.votes, b.votes) << context;
    EXPECT_EQ(a.label_votes, b.label_votes) << context;
    EXPECT_EQ(a.matched_labels, b.matched_labels) << context;
    EXPECT_EQ(a.fingerprint_count, b.fingerprint_count) << context;
    EXPECT_EQ(a.matched_count, b.matched_count) << context;
  }

  /// A valid snapshot of a mid-stream service (two open jobs, one
  /// pending verdict) — the fuzz corpus seed.
  std::string mid_stream_snapshot() {
    RecognitionService service = make_service();
    EXPECT_TRUE(service.open_job(1, 2));
    EXPECT_TRUE(service.open_job(2, 2));
    EXPECT_TRUE(service.open_job(3, 2));
    stream_range(service, 1, 6030.0, 0, 80);
    stream_range(service, 2, 6080.0, 0, 100);
    stream_range(service, 3, 6030.0, 0, 130);  // completed, undrained
    std::ostringstream out;
    service.snapshot(out, 4242);
    return std::move(out).str();
  }

  telemetry::Dataset dataset_;
  Dictionary dictionary_;
};

TEST_F(SnapshotFixture, MidStreamRoundTripYieldsIdenticalVerdicts) {
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(1, 2));
  ASSERT_TRUE(original.open_job(2, 2));
  stream_range(original, 1, 6030.0, 0, 80);  // ft, mid-window
  stream_range(original, 2, 6080.0, 0, 95);  // mg, mid-window

  std::ostringstream out;
  original.snapshot(out, 777);
  const std::string bytes = std::move(out).str();

  RecognitionService restored = make_service();
  std::istringstream in(bytes);
  const ServiceRestoreInfo info = restored.restore(in);
  EXPECT_EQ(info.replay_cursor, 777u);
  EXPECT_EQ(info.jobs_restored, 2u);
  EXPECT_EQ(info.verdicts_restored, 0u);
  EXPECT_EQ(info.dictionary_epoch, 1u);

  // Stats continuity: the restarted service carries the counters on.
  const RecognitionServiceStats before = original.stats();
  const RecognitionServiceStats after = restored.stats();
  EXPECT_EQ(after.active_jobs, 2u);
  EXPECT_EQ(after.jobs_opened, before.jobs_opened);
  EXPECT_EQ(after.samples_pushed, before.samples_pushed);
  EXPECT_EQ(after.queued_samples, before.queued_samples);

  // Finish the replay identically on both services: verdict parity.
  stream_range(original, 1, 6030.0, 80, 130);
  stream_range(original, 2, 6080.0, 95, 130);
  stream_range(restored, 1, 6030.0, 80, 130);
  stream_range(restored, 2, 6080.0, 95, 130);

  auto original_verdicts = original.drain_verdicts();
  auto restored_verdicts = restored.drain_verdicts();
  ASSERT_EQ(original_verdicts.size(), 2u);
  ASSERT_EQ(restored_verdicts.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(original_verdicts[i].job_id, restored_verdicts[i].job_id);
    expect_same_result(original_verdicts[i].result,
                       restored_verdicts[i].result,
                       "job " + std::to_string(original_verdicts[i].job_id));
  }
  EXPECT_EQ(original_verdicts[0].result.prediction(), "ft");
  EXPECT_EQ(original_verdicts[1].result.prediction(), "mg");
  EXPECT_EQ(original.stats().jobs_completed, restored.stats().jobs_completed);
}

TEST_F(SnapshotFixture, PerSourceCursorsRoundTripAndLegacyBodyRestores) {
  // Extended Meta body: named per-source cursors travel and come back.
  {
    RecognitionService original = make_service();
    const std::vector<core::SourceCursor> cursors = {
        {"tcp:7411", 120}, {"udp:7412", 77}, {"shm:node0", 3}};
    std::ostringstream out;
    original.snapshot(out, 200, {}, cursors);
    RecognitionService restored = make_service();
    std::istringstream in(std::move(out).str());
    const ServiceRestoreInfo info = restored.restore(in);
    EXPECT_EQ(info.replay_cursor, 200u);
    EXPECT_EQ(info.source_cursors, cursors);
  }
  // Legacy 8-byte Meta body (no cursor list): restores with an empty
  // source list — old snapshots stay readable.
  {
    RecognitionService original = make_service();
    std::ostringstream out;
    original.snapshot(out, 99);
    RecognitionService restored = make_service();
    std::istringstream in(std::move(out).str());
    const ServiceRestoreInfo info = restored.restore(in);
    EXPECT_EQ(info.replay_cursor, 99u);
    EXPECT_TRUE(info.source_cursors.empty());
  }
  // A cursor count inconsistent with the section length must fail the
  // restore, not allocate: flip the count field up. Layout after the
  // 8-byte magic: u32 len | u32 crc | u8 type | u64 cursor | u32 count.
  {
    RecognitionService original = make_service();
    std::ostringstream out;
    const std::vector<core::SourceCursor> one = {{"a", 1}};
    original.snapshot(out, 1, {}, one);
    std::string bytes = std::move(out).str();
    const std::size_t count_at = 8 + 4 + 4 + 1 + 8;
    bytes[count_at] = '\x7F';
    // Re-seal the CRC so ONLY the count lie is on trial.
    const std::size_t payload_at = 8 + 8;
    std::uint32_t payload_len = 0;
    for (int i = 0; i < 4; ++i) {
      payload_len |= static_cast<std::uint32_t>(
                         static_cast<std::uint8_t>(bytes[8 + i]))
                     << (8 * i);
    }
    const std::uint32_t crc = efd::util::crc32(
        reinterpret_cast<const std::uint8_t*>(bytes.data()) + payload_at,
        payload_len);
    for (int i = 0; i < 4; ++i) {
      bytes[8 + 4 + static_cast<std::size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    RecognitionService restored = make_service();
    std::istringstream in(bytes);
    EXPECT_THROW(restored.restore(in), SnapshotError);
  }
}

TEST_F(SnapshotFixture, DeferredQueuesSurviveRestore) {
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService original = make_service(config);
  ASSERT_TRUE(original.open_job(9, 2));
  stream_range(original, 9, 6030.0, 0, 130);  // enqueued, not recognized
  ASSERT_EQ(original.stats().samples_pushed, 0u);
  ASSERT_EQ(original.stats().queued_samples, 2u * 130u);

  std::ostringstream out;
  original.snapshot(out);

  RecognitionService restored = make_service(config);
  std::istringstream in(std::move(out).str());
  const ServiceRestoreInfo info = restored.restore(in);
  EXPECT_EQ(info.jobs_restored, 1u);
  EXPECT_EQ(restored.stats().queued_samples, 2u * 130u);

  // The restored queue recognizes exactly like the original's would.
  restored.process_pending();
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].job_id, 9u);
  EXPECT_EQ(verdicts[0].result.prediction(), "ft");
}

TEST_F(SnapshotFixture, PendingVerdictsSurviveRestore) {
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(5, 2));
  stream_range(original, 5, 6080.0, 0, 130);  // verdict fired, undrained

  std::ostringstream out;
  original.snapshot(out);

  RecognitionService restored = make_service();
  std::istringstream in(std::move(out).str());
  const ServiceRestoreInfo info = restored.restore(in);
  EXPECT_EQ(info.jobs_restored, 0u);  // done stream travels as a verdict
  EXPECT_EQ(info.verdicts_restored, 1u);

  // snapshot() is non-destructive: BOTH services deliver the verdict.
  auto original_verdicts = original.drain_verdicts();
  auto restored_verdicts = restored.drain_verdicts();
  ASSERT_EQ(original_verdicts.size(), 1u);
  ASSERT_EQ(restored_verdicts.size(), 1u);
  EXPECT_EQ(restored_verdicts[0].job_id, 5u);
  expect_same_result(original_verdicts[0].result, restored_verdicts[0].result,
                     "pending verdict");
}

TEST_F(SnapshotFixture, SwappedEpochSurvivesRestore) {
  RecognitionService original = make_service();
  // Retrain with a third application and hot-swap it in.
  add(3, "lu", 9900.0);
  const Dictionary retrained = train_dictionary(dataset_, config_of());
  EXPECT_EQ(original.swap_dictionary(
                ShardedDictionary::from_dictionary(retrained, 8)),
            2u);

  std::ostringstream out;
  original.snapshot(out);

  RecognitionService restored = make_service();  // boots with the OLD dict
  std::istringstream in(std::move(out).str());
  const ServiceRestoreInfo info = restored.restore(in);
  EXPECT_EQ(info.dictionary_epoch, 2u);
  EXPECT_EQ(restored.stats().dictionary_epoch, 2u);
  EXPECT_EQ(restored.stats().dictionary_swaps, 1u);

  // The restored service recognizes the application only the swapped
  // dictionary knows — proof the embedded epoch (not the constructor's
  // dictionary) is live.
  ASSERT_TRUE(restored.open_job(1, 2));
  stream_range(restored, 1, 9870.0, 0, 130);
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(), "lu");
}

TEST_F(SnapshotFixture, StaleEpochStreamRestoresWithFreshWindows) {
  // A stream pinned to an epoch whose metric/interval layout differs
  // from the active dictionary (crash inside a hot-swap window) cannot
  // transfer its window sums. The restore must NOT fail the boot (a
  // crash-looping server) and must NOT misattribute state: the stream
  // comes back open with fresh windows and is reported in streams_reset.
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(1, 2));
  stream_range(original, 1, 6030.0, 0, 80);  // pinned to epoch 1

  // Swap in a dictionary trained with a second interval: different
  // accumulator layout for new streams.
  FingerprintConfig two_windows = config_of();
  two_windows.intervals = {{60, 120}, {120, 180}};
  original.swap_dictionary(ShardedDictionary::from_dictionary(
      train_dictionary(dataset_, two_windows), 8));
  ASSERT_EQ(original.stats().jobs_on_stale_epoch, 1u);

  std::ostringstream out;
  original.snapshot(out);

  RecognitionService restored = make_service();
  std::istringstream in(std::move(out).str());
  const ServiceRestoreInfo info = restored.restore(in);
  EXPECT_EQ(info.jobs_restored, 1u);
  EXPECT_EQ(info.streams_reset, 1u);
  EXPECT_TRUE(restored.has_job(1));

  // Fresh windows: closing the never-refilled stream yields the
  // unknown-application safeguard, not a half-transferred verdict.
  ASSERT_TRUE(restored.close_job(1));
  const auto verdicts = restored.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].result.recognized);
}

TEST_F(SnapshotFixture, RestoreRefusesUsedService) {
  const std::string bytes = mid_stream_snapshot();

  RecognitionService used = make_service();
  ASSERT_TRUE(used.open_job(77, 2));
  std::istringstream in(bytes);
  EXPECT_THROW(used.restore(in), SnapshotError);
  EXPECT_TRUE(used.has_job(77));  // untouched

  RecognitionService undrained = make_service();
  ASSERT_TRUE(undrained.open_job(78, 2));
  stream_range(undrained, 78, 6030.0, 0, 130);
  ASSERT_GT(undrained.stats().pending_verdicts, 0u);
  std::istringstream in2(bytes);
  EXPECT_THROW(undrained.restore(in2), SnapshotError);
}

TEST_F(SnapshotFixture, RejectsBadMagicHostileLengthsAndTrailingBytes) {
  const std::string valid = mid_stream_snapshot();
  {
    std::string bytes = valid;
    bytes[0] = 'X';
    RecognitionService service = make_service();
    std::istringstream in(bytes);
    EXPECT_THROW(service.restore(in), SnapshotError);
  }
  {
    // A hostile 0xFFFFFFFF section length must be rejected from the
    // 8-byte header alone — not buffered, not allocated.
    std::string bytes = valid.substr(0, 8);
    bytes += std::string("\xFF\xFF\xFF\xFF\x00\x00\x00\x00", 8);
    RecognitionService service = make_service();
    std::istringstream in(bytes);
    EXPECT_THROW(service.restore(in), SnapshotError);
  }
  {
    // A zero-length section cannot even hold its type byte.
    std::string bytes = valid.substr(0, 8);
    bytes += std::string(8, '\0');
    RecognitionService service = make_service();
    std::istringstream in(bytes);
    EXPECT_THROW(service.restore(in), SnapshotError);
  }
  {
    std::string bytes = valid + "garbage";
    RecognitionService service = make_service();
    std::istringstream in(bytes);
    EXPECT_THROW(service.restore(in), SnapshotError);
  }
  {
    // The valid corpus itself restores (the fuzz baseline).
    RecognitionService service = make_service();
    std::istringstream in(valid);
    const ServiceRestoreInfo info = service.restore(in);
    EXPECT_EQ(info.replay_cursor, 4242u);
    EXPECT_EQ(info.jobs_restored, 2u);
    EXPECT_EQ(info.verdicts_restored, 1u);
  }
}

TEST_F(SnapshotFixture, FuzzTruncationAlwaysThrowsNeverCrashes) {
  // Every strict prefix of a valid snapshot — a crash mid-write at any
  // byte — must throw SnapshotError (the End terminator makes section-
  // boundary truncation detectable), never crash or half-restore.
  const std::string valid = mid_stream_snapshot();
  for (std::size_t cut = 0; cut < valid.size();
       cut += (cut < 128 ? 1 : 7)) {  // dense early, strided in the body
    RecognitionService service = make_service();
    std::istringstream in(valid.substr(0, cut));
    EXPECT_THROW(service.restore(in), SnapshotError) << "cut=" << cut;
    EXPECT_EQ(service.stats().active_jobs, 0u) << "cut=" << cut;
    EXPECT_EQ(service.stats().jobs_opened, 0u) << "cut=" << cut;
  }
}

TEST_F(SnapshotFixture, FuzzCorruptionAlwaysDetected) {
  // Deterministic corruption fuzzing: every byte of the file is covered
  // by the magic check or a section CRC, so any flipped byte must
  // surface as SnapshotError — never a crash, never a silent
  // half-correct restore.
  const std::string valid = mid_stream_snapshot();
  std::mt19937 rng(2021);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> delta(1, 255);

  for (int round = 0; round < 300; ++round) {
    std::string corrupted = valid;
    const int flips = 1 + round % 4;
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = pos(rng);
      corrupted[at] = static_cast<char>(
          static_cast<std::uint8_t>(corrupted[at]) ^
          static_cast<std::uint8_t>(delta(rng)));
    }
    RecognitionService service = make_service();
    std::istringstream in(corrupted);
    EXPECT_THROW(service.restore(in), SnapshotError) << "round=" << round;
  }
}

TEST_F(SnapshotFixture, SnapshotUnderLiveTrafficStaysRestorable) {
  // Producers hammer the service while a snapshotter captures it in a
  // loop: every capture must be internally consistent (restorable into
  // a fresh service without error). TSan-validates snapshot() against
  // the drain-token and verdict-queue locking.
  RecognitionService service = make_service();
  constexpr std::uint64_t kJobs = 8;
  constexpr int kRounds = 6;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
  }

  std::vector<std::string> captures;
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::ostringstream out;
      service.snapshot(out, captures.size());
      captures.push_back(std::move(out).str());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t job = 1 + static_cast<std::uint64_t>(p);
             job <= kJobs; job += 4) {
          for (int t = 0; t < 130; ++t) {
            for (std::uint32_t node = 0; node < 2; ++node) {
              service.push(job, node, "nr_mapped_vmstat", t,
                           job % 2 == 0 ? 6030.0 : 6080.0);
            }
          }
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  ASSERT_FALSE(captures.empty());
  for (std::size_t i = 0; i < captures.size(); ++i) {
    RecognitionService fresh = make_service();
    std::istringstream in(captures[i]);
    const ServiceRestoreInfo info = fresh.restore(in);
    EXPECT_EQ(info.replay_cursor, i);
  }
}

// --- EFD-SNAP-V2: incremental base+delta capture chains ----------------

class SnapshotChainFixture : public SnapshotFixture {
 protected:
  /// restore_chain() takes a span of istream pointers; build one over a
  /// vector of capture byte strings.
  static ServiceRestoreInfo restore_from(RecognitionService& service,
                                         const std::vector<std::string>& parts,
                                         std::size_t count) {
    std::vector<std::istringstream> streams;
    streams.reserve(count);
    for (std::size_t i = 0; i < count; ++i) streams.emplace_back(parts[i]);
    std::vector<std::istream*> pointers;
    pointers.reserve(count);
    for (auto& stream : streams) pointers.push_back(&stream);
    return service.restore_chain(pointers);
  }

  /// Drains and sorts a finished service's verdicts for table diffs.
  static std::vector<JobVerdict> sorted_verdicts(RecognitionService& service) {
    auto verdicts = service.drain_verdicts();
    std::sort(verdicts.begin(), verdicts.end(),
              [](const JobVerdict& a, const JobVerdict& b) {
                return a.job_id < b.job_id;
              });
    return verdicts;
  }
};

TEST_F(SnapshotChainFixture, FirstCaptureIsABaseAndRestoresLikeV1) {
  RecognitionService original = make_service();
  ASSERT_TRUE(original.open_job(1, 2));
  ASSERT_TRUE(original.open_job(2, 2));
  stream_range(original, 1, 6030.0, 0, 80);
  stream_range(original, 2, 6080.0, 0, 95);

  SnapshotChainState chain;
  std::ostringstream capture_out;
  const SnapshotCaptureInfo info =
      original.snapshot_capture(capture_out, chain, false, 321);
  EXPECT_TRUE(info.base);
  EXPECT_EQ(info.capture_id, 1u);
  EXPECT_EQ(info.parent_id, 0u);
  EXPECT_EQ(info.streams_written, 2u);
  EXPECT_EQ(chain.last_capture_id, 1u);
  EXPECT_EQ(chain.deltas_since_base, 0u);

  RecognitionService restored = make_service();
  const ServiceRestoreInfo restore_info =
      restore_from(restored, {std::move(capture_out).str()}, 1);
  EXPECT_EQ(restore_info.replay_cursor, 321u);
  EXPECT_EQ(restore_info.jobs_restored, 2u);

  stream_range(original, 1, 6030.0, 80, 130);
  stream_range(original, 2, 6080.0, 95, 130);
  stream_range(restored, 1, 6030.0, 80, 130);
  stream_range(restored, 2, 6080.0, 95, 130);
  const auto expected = sorted_verdicts(original);
  const auto actual = sorted_verdicts(restored);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_EQ(actual.size(), 2u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expect_same_result(expected[i].result, actual[i].result,
                       "job " + std::to_string(expected[i].job_id));
  }
}

TEST_F(SnapshotChainFixture, ChainRestoreEqualsFullSnapshotAtEveryLength) {
  // Grow a chain one capture at a time; after EVERY capture, the chain
  // restore and a plain V1 snapshot of the same instant must finish the
  // replay with identical verdict tables.
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  ASSERT_TRUE(service.open_job(3, 2));

  SnapshotChainState chain;
  std::vector<std::string> captures;
  const auto advance = [&](int from, int to) {
    stream_range(service, 1, 6030.0, from, to);
    stream_range(service, 2, 6080.0, from, to);
    stream_range(service, 3, 6030.0, from, std::min(to, 110));
  };

  int cursor = 0;
  for (const int upto : {20, 45, 70, 95, 120}) {
    advance(cursor, upto);
    cursor = upto;
    std::ostringstream capture_out;
    service.snapshot_capture(capture_out, chain, false,
                             static_cast<std::uint64_t>(upto));
    captures.push_back(std::move(capture_out).str());

    std::ostringstream full_out;
    service.snapshot(full_out, static_cast<std::uint64_t>(upto));

    RecognitionService from_chain = make_service();
    const ServiceRestoreInfo chain_info =
        restore_from(from_chain, captures, captures.size());
    RecognitionService from_full = make_service();
    std::istringstream full_in(std::move(full_out).str());
    const ServiceRestoreInfo full_info = from_full.restore(full_in);
    EXPECT_EQ(chain_info.replay_cursor, full_info.replay_cursor);
    EXPECT_EQ(chain_info.jobs_restored, full_info.jobs_restored);
    EXPECT_EQ(chain_info.verdicts_restored, full_info.verdicts_restored);

    for (RecognitionService* target : {&from_chain, &from_full}) {
      stream_range(*target, 1, 6030.0, cursor, 130);
      stream_range(*target, 2, 6080.0, cursor, 130);
      if (cursor < 110) stream_range(*target, 3, 6030.0, cursor, 110);
      if (target->has_job(3)) ASSERT_TRUE(target->close_job(3));
    }
    const auto expected = sorted_verdicts(from_full);
    const auto actual = sorted_verdicts(from_chain);
    ASSERT_EQ(actual.size(), expected.size()) << "chain len " << captures.size();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].job_id, expected[i].job_id);
      expect_same_result(expected[i].result, actual[i].result,
                         "chain len " + std::to_string(captures.size()) +
                             " job " + std::to_string(expected[i].job_id));
    }
  }
  // The whole run stayed one base + four deltas.
  EXPECT_EQ(chain.deltas_since_base, 4u);
}

TEST_F(SnapshotChainFixture, DeltaOmitsUnchangedStreamsAndStaysSmall) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 60);
  stream_range(service, 2, 6080.0, 0, 60);

  SnapshotChainState chain;
  std::ostringstream base_out;
  const SnapshotCaptureInfo base = service.snapshot_capture(base_out, chain);
  ASSERT_TRUE(base.base);

  // Only job 1 moves: the delta must carry exactly one stream section
  // and be dramatically smaller than the base (no Dictionary inside).
  stream_range(service, 1, 6030.0, 60, 70);
  std::ostringstream delta_out;
  const SnapshotCaptureInfo delta = service.snapshot_capture(delta_out, chain);
  EXPECT_FALSE(delta.base);
  EXPECT_EQ(delta.parent_id, base.capture_id);
  EXPECT_EQ(delta.streams_written, 1u);
  EXPECT_EQ(delta.streams_unchanged, 1u);
  // This fixture's two-application dictionary is tiny, so the base is
  // artificially small; the production-shape ≥5x ratio is measured by
  // bench_retrain_cycle. Here: the delta must at least beat the base.
  EXPECT_LT(delta.bytes, base.bytes)
      << "delta " << delta.bytes << " B vs base " << base.bytes << " B";

  // Nothing moves at all: a pure cursor tick writes zero streams.
  std::ostringstream idle_out;
  const SnapshotCaptureInfo idle = service.snapshot_capture(idle_out, chain);
  EXPECT_FALSE(idle.base);
  EXPECT_EQ(idle.streams_written, 0u);
  EXPECT_EQ(idle.streams_unchanged, 2u);
}

TEST_F(SnapshotChainFixture, ClosedJobsTravelInDeltasAndEpochChangeForcesBase) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 40);
  stream_range(service, 2, 6080.0, 0, 100);  // still mid-stream at the base

  SnapshotChainState chain;
  std::ostringstream base_out;
  ASSERT_TRUE(service.snapshot_capture(base_out, chain).base);

  // Job 2 completes BETWEEN captures: its stream disappears, so the
  // next delta must name it in ClosedJobs.
  stream_range(service, 2, 6080.0, 100, 130);
  ASSERT_EQ(service.drain_verdicts().size(), 1u);  // job 2 is gone

  std::ostringstream delta_out;
  const SnapshotCaptureInfo delta = service.snapshot_capture(delta_out, chain);
  EXPECT_FALSE(delta.base);
  EXPECT_EQ(delta.jobs_closed, 1u);

  RecognitionService restored = make_service();
  restore_from(restored, {base_out.str(), delta_out.str()}, 2);
  EXPECT_TRUE(restored.has_job(1));
  EXPECT_FALSE(restored.has_job(2));  // ClosedJobs removed it on replay

  // A hot-swap changes the dictionary identity: the next capture MUST
  // be a base (deltas never carry a Dictionary section).
  add(3, "lu", 9900.0);
  service.swap_dictionary(ShardedDictionary::from_dictionary(
      train_dictionary(dataset_, config_of()), 8));
  std::ostringstream rebase_out;
  const SnapshotCaptureInfo rebase = service.snapshot_capture(rebase_out, chain);
  EXPECT_TRUE(rebase.base);
  EXPECT_EQ(rebase.parent_id, 0u);
  EXPECT_EQ(chain.deltas_since_base, 0u);

  // force_base also rebases even with no dictionary change.
  std::ostringstream forced_out;
  EXPECT_TRUE(service.snapshot_capture(forced_out, chain, true).base);
}

TEST_F(SnapshotChainFixture, BrokenChainLinksAlwaysThrowWithServiceUntouched) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  stream_range(service, 1, 6030.0, 0, 40);

  SnapshotChainState chain;
  std::vector<std::string> captures;
  for (int round = 0; round < 3; ++round) {
    stream_range(service, 1, 6030.0, 40 + round * 10, 50 + round * 10);
    std::ostringstream out;
    service.snapshot_capture(out, chain);
    captures.push_back(std::move(out).str());
  }

  {
    // A delta can never start a chain.
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, {captures[1]}, 1), SnapshotError);
    EXPECT_EQ(fresh.stats().active_jobs, 0u);
  }
  {
    // A missing middle link breaks parent_id continuity.
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, {captures[0], captures[2]}, 2),
                 SnapshotError);
    EXPECT_EQ(fresh.stats().active_jobs, 0u);
  }
  {
    // The intact chain is the baseline: it restores.
    RecognitionService fresh = make_service();
    const ServiceRestoreInfo info = restore_from(fresh, captures, 3);
    EXPECT_EQ(info.jobs_restored, 1u);
  }
}

TEST_F(SnapshotChainFixture, FuzzDeltaCorruptionAlwaysDetected) {
  // Every flipped byte in any capture of the chain must surface as
  // SnapshotError on replay — CRC sections plus envelope checks leave
  // no silent window — and the target service must stay untouched.
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  stream_range(service, 1, 6030.0, 0, 50);
  stream_range(service, 2, 6080.0, 0, 50);

  SnapshotChainState chain;
  std::vector<std::string> captures;
  for (int round = 0; round < 3; ++round) {
    stream_range(service, 1, 6030.0, 50 + round * 10, 60 + round * 10);
    std::ostringstream out;
    service.snapshot_capture(out, chain);
    captures.push_back(std::move(out).str());
  }

  std::mt19937 rng(2021);
  std::uniform_int_distribution<std::size_t> which(0, captures.size() - 1);
  std::uniform_int_distribution<int> delta(1, 255);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::string> corrupted = captures;
    const std::size_t part = which(rng);
    std::uniform_int_distribution<std::size_t> pos(0,
                                                   corrupted[part].size() - 1);
    std::size_t at = pos(rng);
    // The one deliberately unprotected window: the HEAD capture's own
    // envelope capture_id (bytes 9..16) has no later parent link to
    // validate it and no CRC. A flip there only skews the follower's
    // resume cursor, which the kFollowRequest handshake self-heals
    // (unknown cursor => the leader resends the full chain). Every
    // other byte of every capture must be caught — steer around it.
    while (part == captures.size() - 1 && at >= 9 && at < 17) at = pos(rng);
    corrupted[part][at] = static_cast<char>(
        static_cast<std::uint8_t>(corrupted[part][at]) ^
        static_cast<std::uint8_t>(delta(rng)));
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, corrupted, corrupted.size()),
                 SnapshotError)
        << "round=" << round << " part=" << part << " at=" << at;
    EXPECT_EQ(fresh.stats().active_jobs, 0u) << "round=" << round;
  }

  // Truncation of the final capture — the torn-write shape — too.
  for (std::size_t cut = 0; cut < captures.back().size();
       cut += (cut < 64 ? 1 : 11)) {
    std::vector<std::string> torn = captures;
    torn.back() = torn.back().substr(0, cut);
    RecognitionService fresh = make_service();
    EXPECT_THROW(restore_from(fresh, torn, torn.size()), SnapshotError)
        << "cut=" << cut;
  }
}

}  // namespace
