/// \file test_source_mux.cpp
/// \brief Multi-source ingestion tests: SourceMux fan-in semantics
/// (tagging, fairness, collective exhaustion, per-source counters,
/// cursor seeding), the doorbell every source rings (a frame or a close
/// on any source ends the mux's one wait; a source that cannot ring is
/// still polled), the UDP transport's lossy-tolerant sequencing
/// (gaps/duplicates counted, never fatal), the cross-process-shaped
/// shared-memory ring and its futex wake-ups, and the acceptance gate —
/// the same workload split across TCP+UDP+shm sources of one pipeline
/// must produce the verdict table of a single-source run. The wake-up
/// tests are event-synchronised (no sleeps), and the concurrent
/// mixed-transport parity case is the TSan target.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "core/trainer.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/ring_transport.hpp"
#include "ingest/shm_transport.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/tcp_transport.hpp"
#include "ingest/transport_feed.hpp"
#include "ingest/udp_transport.hpp"

namespace {

using namespace efd;
using namespace efd::ingest;
using core::RecognitionService;
using core::RecognitionServiceConfig;
using core::ShardedDictionary;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Wraps a source and fulfils polled() on its first poll, so a test can
/// act while the mux's poll is in flight without sleeping. Forwards the
/// doorbell only when \p rings — otherwise it is a source that cannot
/// ring (like a decorator that does not forward attach_doorbell).
class FirstPollSignal final : public SampleSource {
 public:
  FirstPollSignal(SampleSource& inner, bool rings)
      : inner_(inner), rings_(rings) {}

  bool poll(std::vector<Envelope>& out,
            std::chrono::milliseconds timeout) override {
    std::call_once(first_poll_, [this] { polled_.set_value(); });
    return inner_.poll(out, timeout);
  }

  bool attach_doorbell(Doorbell* doorbell) override {
    return rings_ && inner_.attach_doorbell(doorbell);
  }

  std::future<void> polled() { return polled_.get_future(); }

 private:
  SampleSource& inner_;
  bool rings_;
  std::once_flag first_poll_;
  std::promise<void> polled_;
};

/// Spins (yielding) until some thread sleeps on \p bell.
template <typename Bell>
void await_sleeper(const Bell& bell) {
  while (!bell.has_waiters()) std::this_thread::yield();
}

/// Thread-safe verdict collector usable as a transport's reply channel.
class VerdictCollector final : public VerdictSink {
 public:
  void deliver(const Message& verdict) override {
    std::lock_guard lock(mutex_);
    verdicts_[verdict.job_id] = verdict.verdict;
  }

  std::map<std::uint64_t, WireVerdict> verdicts() const {
    std::lock_guard lock(mutex_);
    return verdicts_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, WireVerdict> verdicts_;
};

core::FingerprintConfig config_of() {
  core::FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Two-app constant-signal fixture (same shape as the ingest tests).
class SourceMuxFixture : public ::testing::Test {
 protected:
  SourceMuxFixture() : dataset_({"nr_mapped_vmstat"}) {
    add(1, "ft", 6000.0);
    add(2, "mg", 6100.0);
    dictionary_ = core::train_dictionary(dataset_, config_of());
  }

  void add(std::uint64_t id, const std::string& app, double level) {
    telemetry::ExecutionRecord record(id, {app, "X"}, 2, 1);
    for (std::size_t n = 0; n < 2; ++n) {
      for (int t = 0; t < 150; ++t) record.series(n, 0).push_back(level);
    }
    dataset_.add(std::move(record));
  }

  RecognitionService make_service(RecognitionServiceConfig config = {}) {
    return RecognitionService(
        ShardedDictionary::from_dictionary(dictionary_, 8), config);
  }

  /// Sends one full job (open, batched samples, close) through a sender.
  static void send_job(MessageSender& sender, std::uint64_t job_id,
                       double level, int ticks = 130) {
    TransportFeed feed(sender, /*batch_samples=*/64);
    feed.job_opened(job_id, 2);
    for (int t = 0; t < ticks; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        feed.publish(node, "nr_mapped_vmstat", t, level);
      }
    }
    feed.job_closed(job_id);
  }

  telemetry::Dataset dataset_;
  core::Dictionary dictionary_;
};

TEST(SourceMux, TagsEnvelopesAndRetiresSourcesIndependently) {
  SourceMux mux;
  RingTransport a(16), b(16);
  const SourceId id_a = mux.add_source("a", a);
  const SourceId id_b = mux.add_source("b", b);
  ASSERT_EQ(mux.source_count(), 2u);
  ASSERT_NE(id_a, id_b);

  a.send(make_open_job(1, 1));
  b.send(make_open_job(2, 1));
  a.close();  // source a retires after its drain; b stays live

  std::vector<Envelope> batch;
  // Drain everything (two polls at most: non-blocking sweeps).
  EXPECT_TRUE(mux.poll(batch, std::chrono::milliseconds(50)));
  if (batch.size() < 2) {
    EXPECT_TRUE(mux.poll(batch, std::chrono::milliseconds(50)));
  }
  ASSERT_EQ(batch.size(), 2u);
  std::map<std::uint64_t, SourceId> by_job;
  for (const Envelope& envelope : batch) {
    by_job[envelope.message.job_id] = envelope.source;
  }
  EXPECT_EQ(by_job.at(1), id_a);
  EXPECT_EQ(by_job.at(2), id_b);

  // a is exhausted, b alive: the mux must stay live.
  batch.clear();
  EXPECT_TRUE(mux.poll(batch, std::chrono::milliseconds(5)));
  auto stats = mux.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[id_a].exhausted);
  EXPECT_FALSE(stats[id_b].exhausted);
  EXPECT_EQ(stats[id_a].envelopes, 1u);
  EXPECT_EQ(stats[id_b].envelopes, 1u);

  // Only once EVERY source is done does the mux report exhaustion.
  b.close();
  batch.clear();
  EXPECT_FALSE(mux.poll(batch, std::chrono::milliseconds(50)));
  EXPECT_TRUE(batch.empty());
}

TEST(SourceMux, EmptyMuxIsExhaustedAndCursorSeedingIsByName) {
  SourceMux mux;
  std::vector<Envelope> batch;
  EXPECT_FALSE(mux.poll(batch, std::chrono::milliseconds(1)));

  RingTransport ring(4);
  mux.add_source("tcp:7411", ring);
  EXPECT_TRUE(mux.seed_cursor("tcp:7411", 42));
  EXPECT_FALSE(mux.seed_cursor("udp:7412", 7));  // unknown name: dropped
  const auto stats = mux.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].restored_cursor, 42u);
  EXPECT_EQ(stats[0].envelopes, 42u);  // lifetime continuity
  ring.close();
}

TEST(SourceMux, DuplicateNamesAreDisambiguatedDeterministically) {
  SourceMux mux;
  RingTransport a(4), b(4), c(4);
  mux.add_source("tcp:0", a);
  mux.add_source("tcp:0", b);
  mux.add_source("tcp:0", c);
  const auto stats = mux.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "tcp:0");
  EXPECT_EQ(stats[1].name, "tcp:0#1");
  EXPECT_EQ(stats[2].name, "tcp:0#2");
  // Cursors land on the source they name — never the first match of a
  // shared name.
  EXPECT_TRUE(mux.seed_cursor("tcp:0#2", 9));
  EXPECT_EQ(mux.stats()[2].envelopes, 9u);
  EXPECT_EQ(mux.stats()[0].envelopes, 0u);
  a.close();
  b.close();
  c.close();
}

TEST(SourceMux, NoteVerdictCreditsTheRightSource) {
  SourceMux mux;
  RingTransport a(4), b(4);
  mux.add_source("a", a);
  const SourceId id_b = mux.add_source("b", b);
  mux.note_verdict(id_b);
  mux.note_verdict(id_b);
  mux.note_verdict(999);  // unknown: ignored, not a crash
  const auto stats = mux.stats();
  EXPECT_EQ(stats[0].verdicts, 0u);
  EXPECT_EQ(stats[1].verdicts, 2u);
  a.close();
  b.close();
}

// --- the doorbell ------------------------------------------------------

TEST(Doorbell, RingBetweenTicketAndWaitIsNeverLost) {
  Doorbell bell;
  const std::uint32_t ticket = bell.ticket();
  bell.ring();  // lands after the ticket, before the wait
  const auto start = Clock::now();
  bell.wait(ticket, 10s);  // must return at once
  EXPECT_LT(Clock::now() - start, 2s);
  EXPECT_FALSE(bell.has_waiters());
}

TEST(Doorbell, RingFromAnotherThreadEndsAWait) {
  Doorbell bell;
  const std::uint32_t ticket = bell.ticket();
  std::thread ringer([&] {
    await_sleeper(bell);
    bell.ring();
  });
  const auto start = Clock::now();
  bell.wait(ticket, 10s);
  ringer.join();
  EXPECT_LT(Clock::now() - start, 2s);
  EXPECT_FALSE(bell.has_waiters());
}

TEST(SourceMux, FrameOnAnySourceEndsTheWait) {
  // The frame lands on b while the poll is in flight (a's first poll
  // releases the sender). One wait covers both sources, so the poll
  // returns it long before its 10 s timeout; a mux that waited on one
  // source at a time would sit out a's 5 s share first.
  RingTransport a(16), b(16);
  FirstPollSignal watched_a(a, /*rings=*/true);
  SourceMux mux;
  mux.add_source("a", watched_a);
  const SourceId id_b = mux.add_source("b", b);
  std::future<void> polled = watched_a.polled();
  std::thread sender([&] {
    polled.wait();
    b.send(make_open_job(7, 1));
  });

  std::vector<Envelope> batch;
  const auto start = Clock::now();
  EXPECT_TRUE(mux.poll(batch, 10s));
  const auto elapsed = Clock::now() - start;
  sender.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].source, id_b);
  EXPECT_EQ(batch[0].message.job_id, 7u);
  EXPECT_LT(elapsed, 2s);
  a.close();
  b.close();
}

TEST(SourceMux, ClosingEverySourceWakesAWaitingPoll) {
  RingTransport a(4), b(4);
  FirstPollSignal watched_a(a, /*rings=*/true);
  SourceMux mux;
  mux.add_source("a", watched_a);
  mux.add_source("b", b);
  std::future<void> polled = watched_a.polled();
  std::thread closer([&] {
    polled.wait();
    a.close();
    b.close();
  });

  // Each close rings: the polls return promptly (a retiring alone may
  // cost one live-but-empty return) and end with exhaustion.
  std::vector<Envelope> batch;
  const auto start = Clock::now();
  bool live = true;
  for (int i = 0; i < 3 && live; ++i) live = mux.poll(batch, 10s);
  const auto elapsed = Clock::now() - start;
  closer.join();
  EXPECT_FALSE(live);
  EXPECT_TRUE(batch.empty());
  EXPECT_LT(elapsed, 2s);
}

TEST(SourceMux, SourceThatCannotRingIsStillPolled) {
  // `hidden` never rings the mux (its wrapper does not forward the
  // doorbell), so only a sweep finds its frame: the mux must cut its
  // wait to a short tick while such a source is live, not sleep out the
  // caller's 10 s.
  RingTransport plain(16), hidden(16);
  FirstPollSignal unringable(hidden, /*rings=*/false);
  SourceMux mux;
  mux.add_source("plain", plain);
  const SourceId id_hidden = mux.add_source("hidden", unringable);
  std::future<void> polled = unringable.polled();
  std::thread sender([&] {
    polled.wait();
    hidden.send(make_open_job(9, 1));
  });

  std::vector<Envelope> batch;
  const auto start = Clock::now();
  while (batch.empty() && Clock::now() - start < 2s) {
    ASSERT_TRUE(mux.poll(batch, 10s));
  }
  const auto elapsed = Clock::now() - start;
  sender.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].source, id_hidden);
  EXPECT_LT(elapsed, 2s);
  plain.close();
  hidden.close();
}

TEST(SourceMux, DestroyedMuxIsDetachedFromItsSources) {
  // Sources outlive the mux, and their producers may keep sending: the
  // mux's destructor must detach its doorbell, or the next enqueue
  // rings freed memory (caught under ASan).
  RingTransport ring(4);
  {
    SourceMux mux;
    mux.add_source("ring", ring);
  }
  ring.send(make_open_job(1, 1));
  std::vector<Envelope> drained;
  EXPECT_TRUE(ring.poll(drained, 0ms));
  EXPECT_EQ(drained.size(), 1u);
  ring.close();
}

TEST_F(SourceMuxFixture, ServiceShowsEverySourceTagEvenWhenOneIsIdle) {
  // Two listeners, traffic only on the first: the service must still
  // report both tags (the idle one all-zero) — a quiet listener is a
  // dashboard fact, not a reason to fall back to the legacy shape.
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  RingTransport busy(64), idle(64);
  auto collector = std::make_shared<VerdictCollector>();
  busy.set_verdict_sink(collector);
  SourceMux mux;
  mux.add_source("busy", busy);
  mux.add_source("idle", idle);
  IngestPipeline pipeline(service, mux);
  pipeline.start();
  send_job(busy, 1, 6000.0);
  busy.close();
  idle.close();
  pipeline.join();

  const core::RecognitionServiceStats stats = service.stats();
  ASSERT_EQ(stats.by_source.size(), 2u);
  EXPECT_EQ(stats.by_source[0].source, 0u);
  EXPECT_EQ(stats.by_source[0].jobs_opened, 1u);
  EXPECT_EQ(stats.by_source[1].source, 1u);
  EXPECT_EQ(stats.by_source[1].jobs_opened, 0u);
}

// --- UDP datagram sequencing ------------------------------------------

TEST(UdpTransport, CountsGapsDuplicatesAndDecodeErrorsWithoutDying) {
  UdpServer::Config config;
  UdpServer server(config);
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const auto blast = [&](std::uint64_t seq, const Message& message) {
    std::vector<std::uint8_t> datagram;
    encode_datagram(seq, message, datagram);
    ASSERT_GT(::send(fd, datagram.data(), datagram.size(), 0), 0);
  };

  blast(1, make_open_job(1, 1));
  blast(2, make_close_job(1));
  blast(2, make_close_job(1));   // duplicate: dropped, counted
  blast(5, make_open_job(2, 1)); // gap of 2 (seq 3, 4 lost)
  blast(3, make_open_job(9, 1)); // reordered behind delivery: dropped
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);
  // A valid sentinel last: once it is drained, the single receiver
  // thread has handled every datagram before it.
  blast(6, make_close_job(2));

  // The in-order + gapped messages arrive; the rest is counted.
  std::vector<Envelope> drained;
  for (int i = 0; i < 100 && drained.size() < 4; ++i) {
    server.poll(drained, std::chrono::milliseconds(20));
  }
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].message.type, MessageType::kOpenJob);
  EXPECT_EQ(drained[2].message.job_id, 2u);
  EXPECT_EQ(drained[3].message.type, MessageType::kCloseJob);

  const UdpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_EQ(stats.gaps, 2u);
  EXPECT_EQ(stats.duplicates, 2u);  // exact dup + the reordered seq 3
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.peers, 1u);

  const TransportCounters counters = server.transport_counters();
  EXPECT_EQ(counters.gaps, 2u);
  EXPECT_EQ(counters.drops, 2u);
  ::close(fd);
  server.stop();
}

TEST(UdpTransport, PeerTtlStartsAFreshSessionAfterSilence) {
  UdpServer::Config config;
  config.peer_ttl = std::chrono::milliseconds(50);
  UdpServer server(config);

  // One fixed socket = one peer identity across the "reboot".
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const auto blast = [&](std::uint64_t seq, const Message& message) {
    std::vector<std::uint8_t> datagram;
    encode_datagram(seq, message, datagram);
    ASSERT_GT(::send(fd, datagram.data(), datagram.size(), 0), 0);
  };

  blast(1, make_open_job(1, 1));
  blast(2, make_close_job(1));
  std::vector<Envelope> drained;
  for (int i = 0; i < 100 && drained.size() < 2; ++i) {
    server.poll(drained, std::chrono::milliseconds(20));
  }
  ASSERT_EQ(drained.size(), 2u);

  // The emitter goes quiet past the TTL, then resumes — whether a
  // reboot restarting at seq 1 or the same process marching on (seq 7
  // here). Neither may be shed against the old high-water mark as a
  // duplicate, and the idle spell must NOT be booked as packet loss.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  blast(7, make_open_job(2, 1));
  drained.clear();
  for (int i = 0; i < 100 && drained.empty(); ++i) {
    server.poll(drained, std::chrono::milliseconds(20));
  }
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].message.job_id, 2u);
  // Frames are counted at enqueue, so the drain above implies the count.
  const UdpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  ::close(fd);
  server.stop();
}

TEST_F(SourceMuxFixture, UdpJobsFlowToVerdictsOverTheClient) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);

  UdpServer::Config server_config;
  UdpServer server(server_config);
  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  UdpClient client("127.0.0.1", server.port());
  send_job(client, 1, 6030.0);  // -> ft
  send_job(client, 2, 6080.0);  // -> mg

  std::map<std::uint64_t, WireVerdict> verdicts;
  Message message;
  while (verdicts.size() < 2 &&
         client.receive(message, std::chrono::seconds(10))) {
    if (message.type == MessageType::kVerdict) {
      verdicts[message.job_id] = message.verdict;
    }
  }
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.at(1).application, "ft");
  EXPECT_EQ(verdicts.at(2).application, "mg");

  pipeline.stop();
  pipeline.join();
  server.stop();
  EXPECT_EQ(server.stats().gaps, 0u);  // loopback, paced by the test
}

// --- shared-memory ring ------------------------------------------------

TEST_F(SourceMuxFixture, ShmRingRoundTripAndBackPressure) {
  ShmRingServer::Config config;
  config.inbound_bytes = 32 * 1024;  // small: force producer blocking
  ShmRingServer server("mux_test_ring", config);

  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  ShmRingClient client("mux_test_ring");
  send_job(client, 1, 6030.0);
  send_job(client, 2, 6080.0);
  client.finish_sending();

  std::map<std::uint64_t, WireVerdict> verdicts;
  Message message;
  while (verdicts.size() < 2 &&
         client.receive(message, std::chrono::seconds(10))) {
    if (message.type == MessageType::kVerdict) {
      verdicts[message.job_id] = message.verdict;
    }
  }
  pipeline.join();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.at(1).application, "ft");
  EXPECT_EQ(verdicts.at(2).application, "mg");
  EXPECT_EQ(server.stats().decode_errors, 0u);
}

TEST_F(SourceMuxFixture, ShmSessionsTurnOverLikeTcpConnections) {
  // One segment, two sequential emitters: the first finishing must NOT
  // retire the listener (the TCP-hangup analog) — the second attaches
  // to the same name and streams.
  ShmRingServer server("mux_turnover_ring");
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  const auto run_session = [&](std::uint64_t job, double level,
                               const std::string& expected_app) {
    ShmRingClient client("mux_turnover_ring");
    send_job(client, job, level);
    client.finish_sending();
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        EXPECT_EQ(message.job_id, job);
        EXPECT_EQ(message.verdict.application, expected_app);
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(run_session(1, 6030.0, "ft"));
  EXPECT_TRUE(run_session(2, 6080.0, "mg"));
  pipeline.join();
}

TEST(ShmTransport, CorruptStreamRetiresTheSourceNotTheProcess) {
  ShmRingServer server("mux_corrupt_ring");
  // A hostile (or buggy) producer writes garbage with a poisoned length
  // prefix straight into the inbound ring.
  ShmRegion hostile("mux_corrupt_ring", /*create=*/false, 0, 0);
  ShmHeader& header = hostile.header();
  const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD};
  const std::uint64_t head = header.in_head.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < sizeof(garbage); ++i) {
    hostile.inbound()[(head + i) % header.inbound_capacity] = garbage[i];
  }
  header.in_head.store(head + sizeof(garbage), std::memory_order_release);
  header.in_bell.ring();

  // The reader thread retires the source (like a dropped TCP
  // connection) instead of crashing or spinning; the error is counted
  // once, and poll() reports exhaustion as soon as it happened.
  std::vector<Envelope> drained;
  EXPECT_FALSE(server.poll(drained, 10s));
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(server.stats().decode_errors, 1u);

  // The retirement also closed the consumer side, so a producer fails
  // loudly instead of blocking forever on a ring nobody drains.
  ShmRingClient producer("mux_corrupt_ring");
  EXPECT_THROW(producer.send(make_open_job(2, 1)), TransportError);
}

TEST(ShmTransport, HostileCursorRetiresTheSourceWithoutAllocating) {
  ShmRingServer server("mux_cursor_ring");
  ShmRegion hostile("mux_cursor_ring", /*create=*/false, 0, 0);
  ShmHeader& header = hostile.header();
  // A cursor pair claiming far more bytes than the ring holds must be
  // treated as corruption (retire, count) — never an allocation size or
  // a read past the mapping.
  header.in_head.store(
      header.in_tail.load(std::memory_order_relaxed) + (1ull << 40),
      std::memory_order_release);
  header.in_bell.ring();
  std::vector<Envelope> drained;
  EXPECT_FALSE(server.poll(drained, 10s));  // retired by the reader thread
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(server.stats().decode_errors, 1u);
}

TEST(ShmTransport, SecondServerRefusesToHijackALiveSegment) {
  ShmRingServer live("mux_hijack_ring");
  // The first server's heartbeat is fresh, so a second create must fail
  // loudly instead of unlinking the segment out from under it.
  EXPECT_THROW(ShmRingServer("mux_hijack_ring"), TransportError);
  // A client can still attach to the survivor.
  ShmRingClient client("mux_hijack_ring");
  client.send(make_open_job(1, 1));
  std::vector<Envelope> drained;
  EXPECT_TRUE(live.poll(drained, 10s));
  ASSERT_EQ(drained.size(), 1u);
}

TEST(ShmTransport, AttachToMissingSegmentTimesOut) {
  EXPECT_THROW(ShmRingClient("definitely_not_created", /*attach_timeout_ms=*/50),
               TransportError);
}

TEST(ShmTransport, ServerReaderWakesOnAClientSend) {
  ShmRingServer server("mux_wake_ring");
  ShmRegion view("mux_wake_ring", /*create=*/false, 0, 0);
  ShmRingClient client("mux_wake_ring");
  // Every round sends only once the reader sleeps on the segment's
  // doorbell, so only the client's ring can wake it in time: a reader
  // that slept out its idle period would need 20 x 100 ms.
  constexpr int kRounds = 20;
  const auto start = Clock::now();
  for (int round = 1; round <= kRounds; ++round) {
    await_sleeper(view.header().in_bell);
    client.send(make_open_job(static_cast<std::uint64_t>(round), 1));
    std::vector<Envelope> drained;
    ASSERT_TRUE(server.poll(drained, 10s));
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].message.job_id, static_cast<std::uint64_t>(round));
  }
  EXPECT_LT(Clock::now() - start, 1s);
}

TEST(ShmTransport, ClientReceiveWakesOnAVerdict) {
  ShmRingServer server("mux_verdict_ring");
  ShmRegion view("mux_verdict_ring", /*create=*/false, 0, 0);
  ShmRingClient client("mux_verdict_ring");
  client.send(make_open_job(1, 1));
  std::vector<Envelope> drained;
  ASSERT_TRUE(server.poll(drained, 10s));
  ASSERT_EQ(drained.size(), 1u);
  ASSERT_NE(drained[0].reply, nullptr);

  Message received;
  bool got = false;
  std::thread receiver([&] { got = client.receive(received, 10s); });
  await_sleeper(view.header().out_bell);  // receive() sleeps on the futex
  Message verdict;
  verdict.type = MessageType::kVerdict;
  verdict.job_id = 1;
  verdict.verdict = WireVerdict{true, 3, 4, "ft", "ft_X"};
  const auto start = Clock::now();
  drained[0].reply->deliver(verdict);
  receiver.join();
  EXPECT_LT(Clock::now() - start, 2s);
  ASSERT_TRUE(got);
  EXPECT_EQ(received, verdict);
}

TEST(ShmTransport, ReaderExitsOnStopAndOnDestructionWhileBlocked) {
  {
    // Asleep on the segment's doorbell: stop() wakes and joins it, and
    // the drained source then reports exhaustion.
    ShmRingServer server("mux_stop_ring");
    ShmRegion view("mux_stop_ring", /*create=*/false, 0, 0);
    await_sleeper(view.header().in_bell);
    server.stop();
    std::vector<Envelope> drained;
    EXPECT_FALSE(server.poll(drained, 10s));
  }
  {
    // Parked on a full queue (back-pressure): the destructor closes the
    // queue under it and joins.
    auto server = std::make_unique<ShmRingServer>("mux_full_ring");
    ShmRingClient client("mux_full_ring");
    constexpr std::uint64_t kFrames = ShmRingServer::kQueueCapacity + 2;
    for (std::uint64_t job = 1; job <= kFrames; ++job) {
      client.send(make_open_job(job, 1));
    }
    // The queue is full and the reader parked on the next message.
    while (server->transport_counters().blocked == 0) {
      std::this_thread::yield();
    }
    EXPECT_EQ(server->stats().frames, ShmRingServer::kQueueCapacity);
    server.reset();  // hangs here if the reader cannot be woken
  }
}

// --- mixed-transport parity (the acceptance gate, in-process) ----------

TEST_F(SourceMuxFixture, MixedTransportParityMatchesSingleSourceRun) {
  constexpr std::size_t kJobs = 24;  // 8 per transport
  const auto level_of = [](std::uint64_t job) {
    return job % 2 == 0 ? 6000.0 : 6100.0;
  };
  const auto app_of = [](std::uint64_t job) {
    return job % 2 == 0 ? "ft" : "mg";
  };

  // Baseline: every job over one ring source.
  std::map<std::uint64_t, WireVerdict> baseline;
  {
    RecognitionServiceConfig service_config;
    service_config.deferred = true;
    RecognitionService service = make_service(service_config);
    auto collector = std::make_shared<VerdictCollector>();
    RingTransport ring(256);
    ring.set_verdict_sink(collector);
    IngestPipeline pipeline(service, ring);
    pipeline.start();
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
      send_job(ring, job, level_of(job));
    }
    ring.close();
    pipeline.join();
    baseline = collector->verdicts();
    ASSERT_EQ(baseline.size(), kJobs);
  }

  // Mixed: the same jobs split across TCP + UDP + shm sources of ONE
  // pipeline, streamed by three concurrent emitters.
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);

  TcpServer tcp_server({});
  UdpServer udp_server({});
  ShmRingServer shm_server("mux_parity_ring");

  SourceMux mux;
  const SourceId tcp_id = mux.add_source("tcp", tcp_server);
  const SourceId udp_id = mux.add_source("udp", udp_server);
  const SourceId shm_id = mux.add_source("shm", shm_server);

  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = kJobs;
  IngestPipeline pipeline(service, mux, pipeline_config);
  pipeline.start();

  auto tcp_collector = std::make_shared<VerdictCollector>();
  auto udp_collector = std::make_shared<VerdictCollector>();
  auto shm_collector = std::make_shared<VerdictCollector>();

  std::thread tcp_emitter([&] {
    TcpClient client("127.0.0.1", tcp_server.port());
    for (std::uint64_t job = 1; job <= kJobs; job += 3) {
      send_job(client, job, level_of(job));
    }
    client.finish_sending();
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        tcp_collector->deliver(message);
        if (tcp_collector->verdicts().size() >= 8) break;
      }
    }
  });
  std::thread udp_emitter([&] {
    UdpClient client("127.0.0.1", udp_server.port());
    for (std::uint64_t job = 2; job <= kJobs; job += 3) {
      send_job(client, job, level_of(job));
      // Loopback pacing: give the receiver a turn on tiny CI boxes.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        udp_collector->deliver(message);
        if (udp_collector->verdicts().size() >= 8) break;
      }
    }
  });
  std::thread shm_emitter([&] {
    ShmRingClient client("mux_parity_ring");
    for (std::uint64_t job = 3; job <= kJobs; job += 3) {
      send_job(client, job, level_of(job));
    }
    client.finish_sending();
    Message message;
    while (client.receive(message, std::chrono::seconds(10))) {
      if (message.type == MessageType::kVerdict) {
        shm_collector->deliver(message);
        if (shm_collector->verdicts().size() >= 8) break;
      }
    }
  });

  tcp_emitter.join();
  udp_emitter.join();
  shm_emitter.join();
  pipeline.join();
  tcp_server.stop();
  udp_server.stop();

  // The merged verdict table must be IDENTICAL to the baseline run.
  std::map<std::uint64_t, WireVerdict> merged;
  for (const auto& [job, verdict] : tcp_collector->verdicts()) {
    merged[job] = verdict;
  }
  for (const auto& [job, verdict] : udp_collector->verdicts()) {
    merged[job] = verdict;
  }
  for (const auto& [job, verdict] : shm_collector->verdicts()) {
    merged[job] = verdict;
  }
  ASSERT_EQ(merged.size(), kJobs);
  for (const auto& [job, verdict] : baseline) {
    ASSERT_TRUE(merged.contains(job)) << "job " << job;
    EXPECT_EQ(merged.at(job), verdict) << "job " << job;
    EXPECT_EQ(merged.at(job).application, app_of(job)) << "job " << job;
  }

  // Per-source accounting saw every leg.
  const auto stats = mux.stats();
  EXPECT_EQ(stats[tcp_id].verdicts, 8u);
  EXPECT_EQ(stats[udp_id].verdicts, 8u);
  EXPECT_EQ(stats[shm_id].verdicts, 8u);
  EXPECT_GT(stats[tcp_id].samples, 0u);
  EXPECT_GT(stats[udp_id].samples, 0u);
  EXPECT_GT(stats[shm_id].samples, 0u);

  // ...and the service's source-tagged ingress matches.
  const core::RecognitionServiceStats service_stats = service.stats();
  ASSERT_EQ(service_stats.by_source.size(), 3u);
  for (const core::SourceIngressStats& ingress : service_stats.by_source) {
    EXPECT_EQ(ingress.jobs_opened, 8u) << "source " << ingress.source;
    EXPECT_EQ(ingress.jobs_completed, 8u) << "source " << ingress.source;
  }
}

}  // namespace
