/// \file test_ingest.cpp
/// \brief Ingestion layer tests: ring transport semantics (bounded,
/// blocking, ordered), the IngestPipeline vertical slice (open/samples/
/// close -> verdicts back over the transport), end-to-end parity with
/// the in-process run_concurrent_jobs path on the same simulated
/// dataset, a 64-job concurrent ingestion run (TSan target), and the
/// TCP transport over localhost.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "core/matcher.hpp"
#include "core/trainer.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/ring_transport.hpp"
#include "ingest/tcp_transport.hpp"
#include "ingest/transport_feed.hpp"
#include "ldms/sampler.hpp"
#include "ldms/streaming.hpp"
#include "obs/metrics.hpp"
#include "sim/app_model.hpp"
#include "sim/cluster_sim.hpp"
#include "telemetry/metric_registry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;
using namespace efd::ingest;
using core::RecognitionService;
using core::RecognitionServiceConfig;
using core::ShardedDictionary;

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

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return verdicts_.size();
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

/// Two-app constant-signal fixture (same shape as the service tests).
class IngestFixture : public ::testing::Test {
 protected:
  IngestFixture() : dataset_({"nr_mapped_vmstat"}) {
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

TEST(RingTransport, DeliversInOrderAndReportsExhaustion) {
  RingTransport ring(8);
  ring.send(make_open_job(1, 2));
  ring.send(make_close_job(1));
  ring.close();

  // The final poll delivers what remains AND reports exhaustion (false):
  // a closed, fully drained source is finished the moment it empties.
  std::vector<Envelope> batch;
  EXPECT_FALSE(ring.poll(batch, std::chrono::milliseconds(10)));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].message.type, MessageType::kOpenJob);
  EXPECT_EQ(batch[1].message.type, MessageType::kCloseJob);

  batch.clear();
  EXPECT_FALSE(ring.poll(batch, std::chrono::milliseconds(1)));  // drained
  EXPECT_TRUE(batch.empty());
  EXPECT_THROW(ring.send(make_shutdown()), std::runtime_error);
}

TEST(RingTransport, FullRingBlocksProducerUntilConsumed) {
  RingTransport ring(2);
  ASSERT_TRUE(ring.try_send(make_open_job(1, 1)));
  ASSERT_TRUE(ring.try_send(make_open_job(2, 1)));
  EXPECT_FALSE(ring.try_send(make_open_job(3, 1)));  // full, non-blocking

  std::atomic<bool> delivered{false};
  std::thread producer([&] {
    ring.send(make_open_job(3, 1));  // back-pressure: blocks until space
    delivered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(delivered.load());

  std::vector<Envelope> batch;
  EXPECT_TRUE(ring.poll(batch, std::chrono::milliseconds(100)));
  producer.join();
  EXPECT_TRUE(delivered.load());
  EXPECT_GE(ring.blocked_sends(), 1u);

  batch.clear();
  ring.poll(batch, std::chrono::milliseconds(10));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].message.job_id, 3u);
}

TEST_F(IngestFixture, PipelineRunsJobsFromTransportToVerdict) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);

  auto collector = std::make_shared<VerdictCollector>();
  RingTransport ring(256);
  ring.set_verdict_sink(collector);

  IngestPipeline pipeline(service, ring);
  pipeline.start();

  send_job(ring, 10, 6030.0);  // -> ft
  send_job(ring, 11, 6080.0);  // -> mg
  send_job(ring, 12, 6030.0, /*ticks=*/5);  // too short -> unknown
  ring.close();
  pipeline.join();

  const auto verdicts = collector->verdicts();
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_TRUE(verdicts.at(10).recognized);
  EXPECT_EQ(verdicts.at(10).application, "ft");
  EXPECT_EQ(verdicts.at(10).label, "ft_X");
  EXPECT_TRUE(verdicts.at(11).recognized);
  EXPECT_EQ(verdicts.at(11).application, "mg");
  EXPECT_FALSE(verdicts.at(12).recognized);
  EXPECT_EQ(verdicts.at(12).application, core::kUnknownApplication);

  const IngestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.jobs_opened, 3u);
  EXPECT_EQ(stats.verdicts_delivered, 3u);
  EXPECT_EQ(stats.samples, 2u * (130 + 130 + 5));
  EXPECT_EQ(stats.unexpected_messages, 0u);
  EXPECT_EQ(service.stats().active_jobs, 0u);
}

TEST_F(IngestFixture, PipelineRestoreParksRebindsAndSnapshots) {
  // The crash-recovery vertical slice at pipeline level: a snapshot
  // holding one pending verdict (job 1 completed, never shipped) and one
  // in-flight stream (job 2 mid-window); a restarted pipeline restores
  // it, parks job 1's verdict until a connection mentions the job,
  // re-binds job 2 to the reconnecting emitter (whose re-open is
  // rejected but whose replayed ticks dedupe into the restored
  // accumulators), and writes snapshots on the verdict cadence.
  const std::string snap_path =
      ::testing::TempDir() + "/pipeline_restore_snap.efds";
  {
    RecognitionService before = make_service();
    ASSERT_TRUE(before.open_job(1, 2));
    ASSERT_TRUE(before.open_job(2, 2));
    for (int t = 0; t < 130; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        before.push(1, node, "nr_mapped_vmstat", t, 6030.0);
        if (t < 80) before.push(2, node, "nr_mapped_vmstat", t, 6080.0);
      }
    }
    ASSERT_EQ(before.stats().pending_verdicts, 1u);  // job 1, undrained
    std::ofstream out(snap_path, std::ios::binary);
    before.snapshot(out);
  }

  RecognitionService service = make_service();
  auto collector = std::make_shared<VerdictCollector>();
  RingTransport ring(256);
  ring.set_verdict_sink(collector);

  IngestPipelineConfig config;
  config.snapshot_path = snap_path;
  config.restore_on_start = true;
  config.snapshot_every_verdicts = 1;
  std::uint64_t observed = 0;
  config.on_verdict = [&observed](const core::JobVerdict&) { ++observed; };
  IngestPipeline pipeline(service, ring, config);
  pipeline.start();

  // The reconnecting emitter probes job 1 with a bare close -> parked
  // verdict; then re-runs job 2 from t=0 (restored ticks dedupe).
  ring.send(make_close_job(1));
  send_job(ring, 2, 6080.0);
  ring.close();
  pipeline.join();

  const auto verdicts = collector->verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts.at(1).recognized);
  EXPECT_EQ(verdicts.at(1).application, "ft");
  EXPECT_TRUE(verdicts.at(2).recognized);
  EXPECT_EQ(verdicts.at(2).application, "mg");
  EXPECT_EQ(observed, 2u);  // the parked verdict passed through on_verdict

  const IngestPipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.jobs_restored, 1u);   // job 2's stream
  EXPECT_EQ(stats.jobs_rebound, 1u);    // bound to the new connection
  EXPECT_EQ(stats.open_rejected, 1u);   // its re-open was refused
  EXPECT_EQ(stats.verdicts_delivered, 2u);
  EXPECT_GE(stats.snapshots_written, 1u);
  EXPECT_EQ(stats.snapshot_failures, 0u);
  std::remove(snap_path.c_str());
}

TEST_F(IngestFixture, PipelineClosesAbandonedJobsOnSourceEnd) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  auto collector = std::make_shared<VerdictCollector>();
  RingTransport ring(64);
  ring.set_verdict_sink(collector);
  IngestPipeline pipeline(service, ring);

  // Open a job, stream a little, and vanish without CloseJob — the
  // emitter died. The pipeline must still resolve the job.
  TransportFeed feed(ring, 16);
  feed.job_opened(77, 2);
  feed.publish(0, "nr_mapped_vmstat", 0, 6030.0);
  feed.flush();
  ring.close();
  pipeline.run();

  const auto verdicts = collector->verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts.at(77).recognized);
  EXPECT_EQ(pipeline.stats().jobs_closed, 1u);
}

TEST_F(IngestFixture, PipelineSweepEvictsStaleJobsWhileRunning) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  service_config.stale_ttl = std::chrono::milliseconds(0);  // everything idle
  RecognitionService service = make_service(service_config);
  auto collector = std::make_shared<VerdictCollector>();
  RingTransport ring(64);
  ring.set_verdict_sink(collector);

  IngestPipelineConfig pipeline_config;
  pipeline_config.sweep_interval = std::chrono::milliseconds(5);
  pipeline_config.max_verdicts = 2;  // stop once the eviction resolves job 5
  std::size_t stamped = 0;
  pipeline_config.on_verdict = [&stamped](const core::JobVerdict& verdict) {
    // Close and eviction verdicts are timed from their decision.
    if (verdict.enqueue_ns > 0 && verdict.verdict_ns > verdict.enqueue_ns) {
      ++stamped;
    }
  };
  IngestPipeline sweeping(service, ring, pipeline_config);
  const obs::Histogram& latency = obs::hot_path().verdict_e2e_ns;
  const std::uint64_t observed_before = latency.count();

  send_job(ring, 6, 6030.0, /*ticks=*/3);  // closed before its window
  TransportFeed feed(ring, 16);
  feed.job_opened(5, 2);
  feed.publish(0, "nr_mapped_vmstat", 0, 6030.0);
  feed.flush();
  // Note: no close for job 5, and the ring stays open — only the sweep
  // can end it.
  const std::uint64_t delivered = sweeping.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_GE(sweeping.stats().evicted, 1u);
  const auto verdicts = collector->verdicts();
  ASSERT_EQ(verdicts.count(5), 1u);
  ASSERT_EQ(verdicts.count(6), 1u);
  EXPECT_FALSE(verdicts.at(5).recognized);
  EXPECT_FALSE(verdicts.at(6).recognized);
  EXPECT_EQ(service.stats().jobs_evicted, 1u);
  // Every delivered verdict, closed or evicted, is in the latency
  // histogram.
  EXPECT_EQ(stamped, delivered);
  EXPECT_EQ(latency.count() - observed_before,
            sweeping.stats().verdicts_delivered);
  ring.close();
}

TEST_F(IngestFixture, ShutdownMessageStopsThePipeline) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);
  RingTransport ring(16);
  IngestPipeline pipeline(service, ring);
  ring.send(make_shutdown());
  pipeline.run();  // returns because of the shutdown frame, ring still open
  SUCCEED();
  ring.close();
}

TEST(IngestTransportParity, RingPipelineMatchesInProcessStreaming) {
  // The acceptance gate, in-process: the same 64 simulated jobs streamed
  // (a) directly into a service via run_concurrent_jobs and (b) through
  // wire frames over the ring transport into an ingest pipeline must
  // produce identical verdicts. Concurrent producers + pooled deferred
  // recognition make this the 64-job concurrent ingestion TSan test.
  const telemetry::MetricRegistry registry =
      telemetry::MetricRegistry::standard_catalog();
  const auto apps = sim::make_paper_applications();
  constexpr std::uint64_t kSeed = 2021;
  constexpr std::size_t kJobs = 64;
  constexpr double kDuration = 125.0;

  std::vector<sim::ExecutionPlan> plans;
  plans.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    sim::ExecutionPlan plan;
    plan.app = apps[j % apps.size()].get();
    plan.input_size = "X";
    plan.node_count = 2;
    plan.duration_seconds = kDuration;
    plan.execution_id = j + 1;
    plans.push_back(plan);
  }

  // Train once on the bulk-generated equivalents.
  sim::ClusterSimulator simulator(registry, {"nr_mapped_vmstat"}, kSeed);
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  for (const sim::ExecutionPlan& plan : plans) dataset.add(simulator.run(plan));
  const core::FingerprintConfig config = config_of();

  const auto samplers = ldms::make_standard_samplers(registry);

  // Path A: the in-process service path.
  RecognitionService direct_service(
      core::train_dictionary_sharded(dataset, config));
  util::ThreadPool direct_pool(4);
  const ldms::StreamingRunReport direct = ldms::run_concurrent_jobs(
      direct_service, registry, plans, samplers, kSeed, kDuration,
      &direct_pool);
  ASSERT_EQ(direct.verdicts, kJobs);

  // Path B: the same sampling loops emit wire frames into the ring; the
  // pipeline ingests them into a deferred service across a pool.
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  service_config.job_queue_capacity = 256;
  RecognitionService ingest_service(
      core::train_dictionary_sharded(dataset, config), service_config);
  auto collector = std::make_shared<VerdictCollector>();
  RingTransport ring(512);
  ring.set_verdict_sink(collector);
  util::ThreadPool recognition_pool(4);
  IngestPipeline pipeline(ingest_service, ring, {}, &recognition_pool);
  pipeline.start();

  util::ThreadPool producer_pool(8);
  ldms::stream_jobs(
      registry, plans, samplers, kSeed, kDuration,
      [&ring](const sim::ExecutionPlan&) {
        return std::make_unique<TransportFeed>(ring, 128);
      },
      &producer_pool);
  ring.close();
  pipeline.join();

  const auto wire_verdicts = collector->verdicts();
  ASSERT_EQ(wire_verdicts.size(), kJobs);
  for (const core::JobVerdict& verdict : direct.job_verdicts) {
    const auto it = wire_verdicts.find(verdict.job_id);
    ASSERT_NE(it, wire_verdicts.end()) << "job " << verdict.job_id;
    EXPECT_EQ(it->second.recognized, verdict.result.recognized)
        << "job " << verdict.job_id;
    EXPECT_EQ(it->second.application, verdict.result.prediction())
        << "job " << verdict.job_id;
    EXPECT_EQ(it->second.label, verdict.result.label_prediction())
        << "job " << verdict.job_id;
    EXPECT_EQ(it->second.matched, verdict.result.matched_count)
        << "job " << verdict.job_id;
    EXPECT_EQ(it->second.fingerprints, verdict.result.fingerprint_count)
        << "job " << verdict.job_id;
  }
  EXPECT_EQ(ingest_service.stats().active_jobs, 0u);
  EXPECT_EQ(pipeline.stats().unexpected_messages, 0u);
}

TEST_F(IngestFixture, TcpServerRoundTripOverLocalhost) {
  RecognitionServiceConfig service_config;
  service_config.deferred = true;
  RecognitionService service = make_service(service_config);

  TcpServer::Config server_config;
  server_config.port = 0;  // ephemeral
  TcpServer server(server_config);
  ASSERT_GT(server.port(), 0);

  IngestPipelineConfig pipeline_config;
  pipeline_config.max_verdicts = 2;
  IngestPipeline pipeline(service, server, pipeline_config);
  pipeline.start();

  TcpClient client("127.0.0.1", server.port());
  send_job(client, 1, 6030.0);  // -> ft
  send_job(client, 2, 6080.0);  // -> mg

  std::map<std::uint64_t, WireVerdict> verdicts;
  Message message;
  while (verdicts.size() < 2 &&
         client.receive(message, std::chrono::seconds(10))) {
    ASSERT_EQ(message.type, MessageType::kVerdict);
    verdicts[message.job_id] = message.verdict;
  }
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.at(1).application, "ft");
  EXPECT_EQ(verdicts.at(2).application, "mg");

  pipeline.stop();
  pipeline.join();
  server.stop();
  const TcpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_dropped, 0u);
  EXPECT_GT(stats.frames, 0u);
}

TEST(TcpServer, DropsConnectionOnCorruptFraming) {
  TcpServer::Config server_config;
  TcpServer server(server_config);

  // A healthy connection delivers a frame...
  TcpClient good("127.0.0.1", server.port());
  good.send(make_open_job(1, 1));

  // ...while a hostile raw socket sends garbage with a poisoned length
  // prefix; the server must drop that connection, not crash or hang.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::uint8_t garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD,
                                  0xBE, 0xEF, 0x00, 0x42};
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), 0), 0);

  // The healthy frame still arrives; the hostile connection is counted
  // dropped (poll until the reader thread processes the garbage).
  std::vector<Envelope> drained;
  server.poll(drained, std::chrono::milliseconds(200));
  EXPECT_GE(drained.size(), 1u);
  EXPECT_EQ(drained[0].message.type, MessageType::kOpenJob);
  for (int i = 0; i < 100 && server.stats().connections_dropped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.stats().connections_dropped, 1u);
  ::close(fd);
  server.stop();
}

}  // namespace
