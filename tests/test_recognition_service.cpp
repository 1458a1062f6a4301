/// \file test_recognition_service.cpp
/// \brief Tests for the multi-job streaming service: per-job verdict
/// correctness against the offline matcher, lifecycle edge cases, online
/// learning, and a 64-job concurrent end-to-end run over the simulated
/// LDMS path (exercised under ThreadSanitizer in CI).

#include "core/online/recognition_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/matcher.hpp"
#include "core/trainer.hpp"
#include "ldms/sampler.hpp"
#include "ldms/streaming.hpp"
#include "sim/app_model.hpp"
#include "sim/cluster_sim.hpp"
#include "telemetry/metric_registry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace efd;
using namespace efd::core;

FingerprintConfig config_of() {
  FingerprintConfig config;
  config.metrics = {"nr_mapped_vmstat"};
  config.rounding_depth = 2;
  return config;
}

/// Fixture with a two-app trained service (constant-signal dataset like
/// the online recognizer tests).
class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture() : dataset_({"nr_mapped_vmstat"}) {
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

  void stream_job(RecognitionService& service, std::uint64_t job,
                  double level, int ticks = 130) {
    for (int t = 0; t < ticks; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        service.push(job, node, "nr_mapped_vmstat", t, level);
      }
    }
  }

  telemetry::Dataset dataset_;
  Dictionary dictionary_;
};

TEST_F(ServiceFixture, VerdictFiresWhenWindowCloses) {
  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(42, 2));
  EXPECT_TRUE(service.has_job(42));

  stream_job(service, 42, 6030.0);  // rounds to 6000 -> ft at depth 2

  EXPECT_FALSE(service.has_job(42));  // auto-closed at window end
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].job_id, 42u);
  EXPECT_EQ(verdicts[0].result.prediction(), "ft");
  EXPECT_TRUE(service.drain_verdicts().empty());  // drained exactly once
}

TEST_F(ServiceFixture, VerdictMatchesOfflineMatcher) {
  RecognitionService service = make_service();
  const auto& record = dataset_.record(1);  // mg
  ASSERT_TRUE(service.open_job(7, 2));
  for (int t = 0; t < 150; ++t) {
    for (std::uint32_t node = 0; node < 2; ++node) {
      service.push(7, node, "nr_mapped_vmstat", t,
                   record.series(node, 0)[static_cast<std::size_t>(t)]);
    }
  }
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);

  const RecognitionResult offline =
      Matcher(dictionary_).recognize(record, dataset_);
  EXPECT_EQ(verdicts[0].result.prediction(), offline.prediction());
  EXPECT_EQ(verdicts[0].result.votes, offline.votes);
  EXPECT_EQ(verdicts[0].result.matched_count, offline.matched_count);
}

TEST_F(ServiceFixture, LifecycleEdgeCases) {
  RecognitionServiceConfig pooled;
  pooled.worker_count = 2;  // refused, not silently ignored
  EXPECT_THROW(make_service(pooled), std::invalid_argument);

  RecognitionService service = make_service();
  ASSERT_TRUE(service.open_job(1, 2));
  EXPECT_FALSE(service.open_job(1, 2));  // duplicate id rejected

  EXPECT_FALSE(service.push(999, 0, "nr_mapped_vmstat", 0, 1.0));  // no job
  EXPECT_FALSE(service.close_job(999));

  // Force-closing an unready stream yields an unrecognized verdict.
  service.push(1, 0, "nr_mapped_vmstat", 0, 6000.0);
  EXPECT_TRUE(service.close_job(1));
  EXPECT_FALSE(service.has_job(1));
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].result.recognized);
  EXPECT_EQ(verdicts[0].result.prediction(), kUnknownApplication);

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.jobs_opened, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.samples_dropped, 1u);
  EXPECT_EQ(stats.samples_pushed, 1u);
}

TEST_F(ServiceFixture, OnlineLearningAddsRecognizableApplication) {
  RecognitionService service = make_service();
  // "learning new applications is as simple as adding new keys".
  for (std::uint32_t node = 0; node < 2; ++node) {
    FingerprintKey key;
    key.metric = "nr_mapped_vmstat";
    key.node_id = node;
    key.interval = {60, 120};
    key.rounded_means = {9900.0};
    service.learn(key, "lu_X");
  }
  ASSERT_TRUE(service.open_job(5, 2));
  stream_job(service, 5, 9870.0);  // rounds to 9900 at depth 2
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(), "lu");
}

TEST_F(ServiceFixture, ManyConcurrentJobsFromManyThreads) {
  // 64 jobs pushed from competing threads; every verdict must match the
  // level each job streamed. TSan-validates service + dictionary locks.
  RecognitionService service = make_service();
  constexpr std::uint64_t kJobs = 64;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t job = 1 + static_cast<std::uint64_t>(t);
           job <= kJobs; job += 8) {
        stream_job(service, job, job % 2 == 0 ? 6030.0 : 6080.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), kJobs);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_EQ(verdict.result.prediction(),
              verdict.job_id % 2 == 0 ? "ft" : "mg")
        << "job " << verdict.job_id;
  }
  EXPECT_EQ(service.stats().active_jobs, 0u);
}

TEST_F(ServiceFixture, DeferredModeBuffersUntilProcessPending) {
  RecognitionServiceConfig config;
  config.deferred = true;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(3, 2));

  stream_job(service, 3, 6030.0);  // enqueued, not recognized yet
  EXPECT_EQ(service.stats().samples_pushed, 0u);
  EXPECT_EQ(service.stats().queued_samples, 2u * 130u);
  EXPECT_TRUE(service.drain_verdicts().empty());
  EXPECT_TRUE(service.has_job(3));

  const std::size_t fed = service.process_pending();
  EXPECT_GT(fed, 0u);
  EXPECT_EQ(service.stats().queued_samples, 0u);
  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(), "ft");

  // The deferred verdict must be identical to the inline-mode one.
  RecognitionService inline_service = make_service();
  ASSERT_TRUE(inline_service.open_job(3, 2));
  stream_job(inline_service, 3, 6030.0);
  const auto inline_verdicts = inline_service.drain_verdicts();
  ASSERT_EQ(inline_verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].result.prediction(),
            inline_verdicts[0].result.prediction());
  EXPECT_EQ(verdicts[0].result.votes, inline_verdicts[0].result.votes);
}

TEST_F(ServiceFixture, DropOldestPolicyBoundsQueueAndCountsOverflow) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 8;
  config.policy = BackpressurePolicy::kDropOldest;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(1, 2));

  // A job that never completes must not grow service memory unboundedly:
  // 10000 pushes against a capacity-8 queue retain exactly 8 samples.
  constexpr int kPushes = 10000;
  for (int i = 0; i < kPushes; ++i) {
    EXPECT_TRUE(service.push(1, 0, "nr_mapped_vmstat", i, 6030.0));
  }
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued_samples, 8u);
  EXPECT_EQ(stats.samples_overflowed, static_cast<std::uint64_t>(kPushes - 8));
  EXPECT_EQ(stats.samples_rejected, 0u);
  EXPECT_EQ(stats.samples_pushed, 0u);  // nothing recognized yet

  service.process_pending();
  stats = service.stats();
  EXPECT_EQ(stats.queued_samples, 0u);
  EXPECT_EQ(stats.samples_pushed, 8u);  // only the retained window fed
}

TEST_F(ServiceFixture, RejectPolicyRefusesWhenFull) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 4;
  config.policy = BackpressurePolicy::kReject;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(1, 2));

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(service.push(1, 0, "nr_mapped_vmstat", i, 6030.0));
  }
  EXPECT_FALSE(service.push(1, 0, "nr_mapped_vmstat", 4, 6030.0));
  EXPECT_FALSE(service.push(1, 0, "nr_mapped_vmstat", 5, 6030.0));

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued_samples, 4u);
  EXPECT_EQ(stats.samples_rejected, 2u);
  EXPECT_EQ(stats.samples_overflowed, 0u);
}

TEST_F(ServiceFixture, BlockPolicyIsLosslessAndDeadlockFree) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 4;
  config.policy = BackpressurePolicy::kBlock;
  RecognitionService service = make_service(config);
  ASSERT_TRUE(service.open_job(1, 2));

  // A lone producer against a full queue must NOT deadlock waiting for
  // a consumer that does not exist: with no active drainer the pusher
  // drains inline. Every sample survives — kBlock never loses data.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.push(1, 0, "nr_mapped_vmstat", i, 6030.0));
  }
  EXPECT_EQ(service.stats().queued_samples, 4u);
  ASSERT_TRUE(service.push(1, 0, "nr_mapped_vmstat", 4, 6030.0));

  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.samples_rejected, 0u);
  EXPECT_EQ(stats.samples_overflowed, 0u);
  EXPECT_EQ(stats.samples_pushed + stats.queued_samples, 5u);  // lossless

  // Concurrent producers hammering one tiny queue stay lossless too
  // (some wait on the active drainer, some drain themselves).
  constexpr int kPerThread = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerThread; ++i) {
        service.push(1, 1, "nr_mapped_vmstat", p * kPerThread + i, 6030.0);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  service.process_pending();

  stats = service.stats();
  EXPECT_EQ(stats.samples_rejected, 0u);
  EXPECT_EQ(stats.samples_overflowed, 0u);
  EXPECT_EQ(stats.samples_pushed + stats.queued_samples + stats.samples_late,
            5u + 4u * kPerThread);
}

TEST_F(ServiceFixture, InlinePushBatchLargerThanQueueStaysLossless) {
  // Inline mode: the pushing thread is the consumer, so a batch larger
  // than the queue capacity must drain mid-batch, never shed — even
  // under the lossy policies.
  for (const auto policy : {BackpressurePolicy::kDropOldest,
                            BackpressurePolicy::kReject,
                            BackpressurePolicy::kBlock}) {
    RecognitionServiceConfig config;
    config.deferred = false;
    config.job_queue_capacity = 16;
    config.policy = policy;
    RecognitionService service = make_service(config);
    ASSERT_TRUE(service.open_job(1, 2));

    std::vector<RecognitionService::SamplePush> batch;
    for (int t = 0; t < 130; ++t) {
      for (std::uint32_t node = 0; node < 2; ++node) {
        batch.push_back({node, t, 6030.0, "nr_mapped_vmstat"});
      }
    }
    const std::size_t accepted = service.push_batch(1, batch);
    const RecognitionServiceStats stats = service.stats();
    // Nothing shed by the policy: every sample either reached the
    // recognizer or arrived after the verdict fired at t=120 (late),
    // exactly like the per-sample inline path.
    EXPECT_EQ(stats.samples_overflowed, 0u) << backpressure_policy_name(policy);
    EXPECT_EQ(stats.samples_rejected, 0u) << backpressure_policy_name(policy);
    EXPECT_EQ(stats.samples_pushed, accepted);
    EXPECT_EQ(stats.samples_late, batch.size() - accepted);
    // The verdict fires on the sample completing [60,120) — node 1's
    // t=119 — so exactly 2 x 120 samples reach the recognizer.
    EXPECT_EQ(accepted, 2u * 120u) << backpressure_policy_name(policy);

    const auto verdicts = service.drain_verdicts();
    ASSERT_EQ(verdicts.size(), 1u) << backpressure_policy_name(policy);
    EXPECT_EQ(verdicts[0].result.prediction(), "ft")
        << backpressure_policy_name(policy);
  }
}

TEST_F(ServiceFixture, StaleSweepEvictsIdleStreamsAndBoundsMemory) {
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 16;
  config.policy = BackpressurePolicy::kDropOldest;
  RecognitionService service = make_service(config);

  ASSERT_TRUE(service.open_job(1, 2));
  ASSERT_TRUE(service.open_job(2, 2));
  service.push(1, 0, "nr_mapped_vmstat", 0, 6030.0);  // never completes

  // Nothing is stale within a generous TTL.
  EXPECT_EQ(service.sweep_stale_jobs(std::chrono::hours(1)), 0u);
  EXPECT_EQ(service.stats().active_jobs, 2u);

  // With TTL zero every idle stream is stale: both evicted, each yields
  // the unknown-application safeguard verdict, and the jobs map reaps.
  EXPECT_EQ(service.sweep_stale_jobs(std::chrono::seconds(0)), 2u);
  RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.jobs_evicted, 2u);
  EXPECT_EQ(stats.queued_samples, 0u);

  const auto verdicts = service.drain_verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_FALSE(verdict.result.recognized);
    EXPECT_EQ(verdict.result.prediction(), kUnknownApplication);
  }
  EXPECT_EQ(service.stats().pending_verdicts, 0u);

  // Evicted ids are reusable, and a re-run sweep finds nothing.
  EXPECT_TRUE(service.open_job(1, 2));
  EXPECT_EQ(service.sweep_stale_jobs(std::chrono::hours(1)), 0u);
}

TEST_F(ServiceFixture, DeferredConcurrentProducersWithPooledProcessing) {
  // Producers hammer deferred queues from competing threads while a
  // consumer drives process_pending across a pool — the ingest
  // pipeline's exact shape — and a third thread drains verdicts and
  // polls stats. The queue is small enough to force kBlock waits on the
  // active drainer. TSan-validates queue + drain-token + verdict-queue
  // locking; the end state must be lossless.
  RecognitionServiceConfig config;
  config.deferred = true;
  config.job_queue_capacity = 16;
  config.policy = BackpressurePolicy::kBlock;
  RecognitionService service = make_service(config);
  constexpr std::uint64_t kJobs = 32;
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    ASSERT_TRUE(service.open_job(job, 2));
  }

  util::ThreadPool pool(4);
  std::atomic<bool> done_producing{false};
  std::atomic<bool> done_processing{false};
  std::vector<JobVerdict> verdicts;
  std::thread drainer([&] {
    while (!done_processing.load()) {
      for (auto& verdict : service.drain_verdicts()) {
        verdicts.push_back(std::move(verdict));
      }
      (void)service.stats();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t job = 1 + static_cast<std::uint64_t>(p);
           job <= kJobs; job += 4) {
        stream_job(service, job, job % 2 == 0 ? 6030.0 : 6080.0);
        // A second process_pending caller racing the consumer's.
        if (job % 8 == 1) service.process_pending();
      }
    });
  }
  std::thread consumer([&] {
    while (!done_producing.load()) {
      service.process_pending(&pool);
      std::this_thread::yield();
    }
    service.process_pending(&pool);
  });
  for (auto& producer : producers) producer.join();
  done_producing.store(true);
  consumer.join();
  done_processing.store(true);
  drainer.join();
  for (auto& verdict : service.drain_verdicts()) {
    verdicts.push_back(std::move(verdict));
  }

  ASSERT_EQ(verdicts.size(), kJobs);
  for (const JobVerdict& verdict : verdicts) {
    EXPECT_EQ(verdict.result.prediction(),
              verdict.job_id % 2 == 0 ? "ft" : "mg")
        << "job " << verdict.job_id;
  }
  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.samples_rejected, 0u);
  EXPECT_EQ(stats.samples_overflowed, 0u);
  EXPECT_EQ(stats.active_jobs, 0u);
  EXPECT_EQ(stats.pending_verdicts, 0u);
  EXPECT_EQ(stats.jobs_completed, kJobs);
}

TEST(RecognitionServiceStreaming, ConcurrentSimulatedClusterEndToEnd) {
  // Full-stack run: 64 simulated jobs through samplers -> collector ->
  // service across a pool, verdicts identical to offline recognition of
  // the bulk-generated records (the sim adapter guarantees bit-identical
  // telemetry between the two paths).
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

  // Bulk-generate the same executions and train on them.
  sim::ClusterSimulator simulator(registry, {"nr_mapped_vmstat"}, kSeed);
  telemetry::Dataset dataset({"nr_mapped_vmstat"});
  for (const sim::ExecutionPlan& plan : plans) dataset.add(simulator.run(plan));

  const FingerprintConfig config = config_of();
  RecognitionService service(train_dictionary_sharded(dataset, config));

  const auto samplers = ldms::make_standard_samplers(registry);
  util::ThreadPool pool(8);
  const ldms::StreamingRunReport report = ldms::run_concurrent_jobs(
      service, registry, plans, samplers, kSeed, kDuration, &pool);

  EXPECT_EQ(report.jobs_run, kJobs);
  ASSERT_EQ(report.verdicts, kJobs);

  const Matcher offline_matcher(service.dictionary());
  for (const JobVerdict& verdict : report.job_verdicts) {
    const auto& record = dataset.record(verdict.job_id - 1);
    ASSERT_EQ(record.id(), verdict.job_id);
    const RecognitionResult offline =
        offline_matcher.recognize(record, dataset);
    EXPECT_EQ(verdict.result.prediction(), offline.prediction())
        << "job " << verdict.job_id;
    EXPECT_EQ(verdict.result.votes, offline.votes) << "job " << verdict.job_id;
  }
  EXPECT_EQ(service.stats().active_jobs, 0u);
}

}  // namespace
