#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "core/dictionary_index.hpp"
#include "core/matcher.hpp"
#include "core/online/recognition_service.hpp"
#include "core/recognition_scratch.hpp"
#include "core/rounding_kernel.hpp"
#include "core/sharded_dictionary.hpp"
#include "core/trainer.hpp"
#include "drive.hpp"
#include "ingest/buffer_pool.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/shm_transport.hpp"
#include "ingest/source_mux.hpp"
#include "ingest/tcp_transport.hpp"
#include "ingest/udp_transport.hpp"
#include "retrain/retrain_controller.hpp"
#include "retrain/validation_gate.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using efd::ingest::Envelope;
using efd::ingest::Message;
using efd::ingest::MessageType;
using efd::ingest::VerdictSink;

/// What the pipeline-thread decorators and the verdict hook record. Only
/// the pipeline's run() thread writes it while the pass runs.
struct ServerTrace {
  explicit ServerTrace(std::size_t jobs)
      : last_poll(jobs, kNoParent),
        poll_span(jobs, kNoParent),
        deliver_span(jobs, kNoParent),
        enqueue_ns(jobs, 0),
        verdict_ns(jobs, 0),
        on_verdict_ns(jobs, 0) {}

  /// Job index of a wire job id, or SIZE_MAX for ids outside the plan.
  std::size_t index_of(std::uint64_t job_id) const noexcept {
    return job_id >= 1 && job_id <= last_poll.size() ? job_id - 1 : SIZE_MAX;
  }

  SpanLog log{"server.pipeline"};
  std::vector<std::uint32_t> last_poll;
  std::vector<std::uint32_t> poll_span;
  std::vector<std::uint32_t> deliver_span;
  std::vector<std::int64_t> enqueue_ns;
  std::vector<std::int64_t> verdict_ns;
  std::vector<std::int64_t> on_verdict_ns;
  std::vector<double> flush_wait_ns;
  std::vector<double> verdict_lag_ns;
  std::uint64_t polls_with_data = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t samples = 0;
  std::int64_t poll_ns = 0;
  std::uint64_t verdicts_sent = 0;
  std::int64_t send_ns = 0;
};

/// Times VerdictSink::deliver/deliver_many of one reply channel.
class TracingSink final : public VerdictSink {
 public:
  TracingSink(std::shared_ptr<VerdictSink> inner, ServerTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void deliver(const Message& message) override {
    const std::int64_t start = now_ns();
    inner_->deliver(message);
    record(std::span<const Message>(&message, 1), start, now_ns());
  }

  void deliver_many(std::span<const Message> messages) override {
    const std::int64_t start = now_ns();
    inner_->deliver_many(messages);
    record(messages, start, now_ns());
  }

 private:
  void record(std::span<const Message> messages, std::int64_t start, std::int64_t end) {
    std::uint64_t verdicts = 0;
    for (const Message& message : messages) {
      verdicts += message.type == MessageType::kVerdict ? 1 : 0;
    }
    if (verdicts == 0) return;
    const std::uint32_t span =
        trace_.log.add("ingest.deliver_many", start, end, 0, verdicts);
    trace_.verdicts_sent += verdicts;
    trace_.send_ns += end - start;
    for (const Message& message : messages) {
      const std::size_t job = trace_.index_of(message.job_id);
      if (message.type == MessageType::kVerdict && job != SIZE_MAX) {
        trace_.deliver_span[job] = span;
      }
    }
  }

  std::shared_ptr<VerdictSink> inner_;
  ServerTrace& trace_;
};

/// Times SampleSource::poll of one transport and wraps each reply
/// channel in a TracingSink (one wrapper per channel, so the pipeline's
/// per-connection grouping is unchanged).
class TracingSource final : public efd::ingest::SampleSource {
 public:
  TracingSource(efd::ingest::SampleSource& inner, ServerTrace& trace)
      : inner_(inner), trace_(trace) {}

  bool poll(std::vector<Envelope>& out, std::chrono::milliseconds timeout) override {
    const std::size_t before = out.size();
    const std::int64_t start = now_ns();
    const bool live = inner_.poll(out, timeout);
    const std::int64_t end = now_ns();
    if (out.size() == before) return live;
    std::uint64_t samples = 0;
    const std::uint32_t span =
        trace_.log.add("ingest.poll", start, end, 0, out.size() - before);
    for (std::size_t i = before; i < out.size(); ++i) {
      Envelope& envelope = out[i];
      samples += envelope.message.samples.size();
      const std::size_t job = trace_.index_of(envelope.message.job_id);
      if (job != SIZE_MAX) trace_.last_poll[job] = span;
      if (envelope.reply != nullptr) envelope.reply = wrap(envelope.reply);
    }
    ++trace_.polls_with_data;
    trace_.envelopes += out.size() - before;
    trace_.samples += samples;
    trace_.poll_ns += end - start;
    return live;
  }

  efd::ingest::TransportCounters transport_counters() const override {
    return inner_.transport_counters();
  }
  const efd::ingest::SampleBufferPool* buffer_pool() const override {
    return inner_.buffer_pool();
  }

 private:
  std::shared_ptr<VerdictSink> wrap(const std::shared_ptr<VerdictSink>& inner) {
    std::shared_ptr<TracingSink>& wrapper = wrappers_[inner.get()];
    if (wrapper == nullptr) wrapper = std::make_shared<TracingSink>(inner, trace_);
    return wrapper;
  }

  efd::ingest::SampleSource& inner_;
  ServerTrace& trace_;
  std::unordered_map<VerdictSink*, std::shared_ptr<TracingSink>> wrappers_;
};

/// The pipeline's on_verdict hook of a traced pass: the verdict's flush
/// wait and admission-to-verdict lag, and the spans it closes.
void record_verdict(ServerTrace& trace, const efd::core::JobVerdict& verdict) {
  const std::int64_t at = now_ns();
  const std::size_t job = trace.index_of(verdict.job_id);
  trace.flush_wait_ns.push_back(static_cast<double>(at - verdict.verdict_ns));
  trace.log.add("ingest.flush_wait", verdict.verdict_ns, at, verdict.job_id);
  if (verdict.enqueue_ns > 0) {
    trace.verdict_lag_ns.push_back(
        static_cast<double>(verdict.verdict_ns - verdict.enqueue_ns));
    trace.log.add("online.admit_to_verdict", verdict.enqueue_ns, verdict.verdict_ns,
                  verdict.job_id);
  }
  if (job == SIZE_MAX) return;
  trace.poll_span[job] = trace.last_poll[job];
  trace.enqueue_ns[job] = verdict.enqueue_ns;
  trace.verdict_ns[job] = verdict.verdict_ns;
  trace.on_verdict_ns[job] = at;
}

/// The serve path in this process, configured as `efd_cli serve` is for
/// the workload; when \p trace is given, every transport sits behind a
/// TracingSource and each verdict is recorded as it is flushed.
struct InProcessServer {
  InProcessServer(const WorkloadSpec& spec, const Inputs& inputs,
                  const std::string& run_dir, ServerTrace* trace)
      : service(efd::core::ShardedDictionary::load_file(inputs.dict_path),
                service_config(spec)) {
    if (uses(spec, Transport::kShm)) {
      endpoints.shm = "efdbenchtr" + std::to_string(::getpid());
      shm = std::make_unique<efd::ingest::ShmRingServer>(endpoints.shm);
      add_source("shm:" + endpoints.shm, *shm, trace);
    }
    if (uses(spec, Transport::kUdp)) {
      udp = std::make_unique<efd::ingest::UdpServer>(efd::ingest::UdpServer::Config{});
      endpoints.udp = udp->port();
      add_source("udp:0", *udp, trace);
    }
    tcp = std::make_unique<efd::ingest::TcpServer>(efd::ingest::TcpServer::Config{});
    endpoints.tcp = tcp->port();
    add_source("tcp:0", *tcp, trace);

    efd::ingest::IngestPipelineConfig config;
    config.http_port = 0;
    if (spec.side_work) {
      config.snapshot_path = run_dir + "/snapshots/traced.snap";
      config.snapshot_every_verdicts = 250;
      efd::retrain::RetrainConfig retrain_config;
      retrain_config.interval = std::chrono::milliseconds(2000);
      retrain_config.dry_run = true;
      retrain_pool = std::make_unique<efd::util::ThreadPool>(1);  // serve --threads 1
      retrain_config.pool = retrain_pool.get();
      retrain = std::make_unique<efd::retrain::RetrainController>(service, retrain_config);
      config.retrain = retrain.get();
    }
    if (trace != nullptr) {
      config.on_verdict = [trace](const efd::core::JobVerdict& verdict) {
        record_verdict(*trace, verdict);
      };
    }
    pipeline = std::make_unique<efd::ingest::IngestPipeline>(service, mux, config);
    endpoints.http = pipeline->http_port();
    pipeline->start();
  }

  ~InProcessServer() {
    if (pipeline) {
      pipeline->stop();
      pipeline->join();
      pipeline.reset();
    }
    if (tcp) tcp->stop();
    if (udp) udp->stop();
    if (shm) shm->stop();
  }

  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  static efd::core::RecognitionServiceConfig service_config(const WorkloadSpec& spec) {
    efd::core::RecognitionServiceConfig config;
    config.deferred = true;
    config.worker_count = spec.workers;
    config.stale_ttl = std::chrono::seconds(600);
    return config;
  }

  void add_source(const std::string& name, efd::ingest::SampleSource& source,
                  ServerTrace* trace) {
    if (trace == nullptr) {
      mux.add_source(name, source);
      return;
    }
    decorators.push_back(std::make_unique<TracingSource>(source, *trace));
    mux.add_source(name, *decorators.back());
  }

  efd::core::RecognitionService service;
  std::unique_ptr<efd::util::ThreadPool> retrain_pool;
  std::unique_ptr<efd::retrain::RetrainController> retrain;
  std::unique_ptr<efd::ingest::ShmRingServer> shm;
  std::unique_ptr<efd::ingest::UdpServer> udp;
  std::unique_ptr<efd::ingest::TcpServer> tcp;
  std::vector<std::unique_ptr<TracingSource>> decorators;
  efd::ingest::SourceMux mux;
  std::unique_ptr<efd::ingest::IngestPipeline> pipeline;
  Endpoints endpoints;
};

/// Share of each verdict's wire-to-wire interval that no span covers;
/// fills \p critical with the covering spans (trace id = job id).
double unattributed_share(const DriveResult& result, const ClientTrace& client,
                          const ServerTrace& server, SpanLog& critical) {
  std::vector<double> shares;
  for (std::size_t job = 0; job < result.jobs; ++job) {
    if (!result.verdicts[job].has_value()) continue;
    const std::int64_t lo = result.trigger_ns[job];
    const std::int64_t hi = result.received_ns[job];
    if (hi <= lo) continue;
    const std::uint64_t id = job + 1;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    const auto take = [&](const char* name, std::int64_t start, std::int64_t end) {
      if (end <= start) return;
      covered.emplace_back(start, end);
      critical.add(name, start, end, id);
    };
    if (client.trigger_send_span[job] != kNoParent) {
      const Span& span = client.send.at(client.trigger_send_span[job]);
      take("client.send", span.start_ns, span.end_ns);
    }
    if (server.poll_span[job] != kNoParent) {
      const Span& span = server.log.at(server.poll_span[job]);
      take("ingest.poll", span.start_ns, span.end_ns);
    }
    if (server.enqueue_ns[job] > 0) {
      take("online.admit_to_verdict", server.enqueue_ns[job], server.verdict_ns[job]);
    }
    if (server.verdict_ns[job] > 0) {
      take("ingest.flush_wait", server.verdict_ns[job], server.on_verdict_ns[job]);
    }
    if (server.deliver_span[job] != kNoParent) {
      const Span& span = server.log.at(server.deliver_span[job]);
      take("ingest.deliver_many", span.start_ns, span.end_ns);
    }
    const auto [log, index] = client.verdict_receive_span[job];
    if (log != kNoParent) {
      const Span& span = client.receive.at(log).at(index);
      take("client.receive", span.start_ns, span.end_ns);
    }
    critical.add("wire_to_wire", lo, hi, id);
    shares.push_back(1.0 - static_cast<double>(covered_ns(std::move(covered), lo, hi)) /
                               static_cast<double>(hi - lo));
  }
  return median(std::move(shares));
}

/// The probe subset: the first jobs of the plan, up to ~1.5M samples.
struct ProbeJob {
  std::uint32_t serve_pos = 0;
  std::int32_t ticks = 0;  ///< ticks streamed before the close
};

std::vector<ProbeJob> probe_jobs(const Inputs& inputs, const Plan& plan,
                                 std::size_t jobs) {
  std::vector<ProbeJob> out;
  std::uint64_t samples = 0;
  for (std::size_t job = 0; job < jobs && samples < 1'500'000; ++job) {
    ProbeJob probe;
    probe.serve_pos = plan.job_serve_pos[job];
    const auto& record = inputs.dataset.record(inputs.serve[probe.serve_pos]);
    probe.ticks = std::min(record_ticks(record), plan.schedule.jobs[job].ticks_sent);
    samples += static_cast<std::uint64_t>(probe.ticks) * record.node_count() *
               record.metric_count();
    out.push_back(probe);
  }
  return out;
}

/// ingest: FrameDecoder over the workload's recorded byte stream.
void probe_decode(const Plan& plan, SpanLog& log) {
  std::vector<std::uint8_t> stream;
  for (const Frame& frame : plan.schedule.frames) {
    const FrameTemplates& templates = plan.job_templates(frame.job);
    append_frame(templates, templates.index(frame), frame.job + 1ull, stream);
    if (stream.size() > (16u << 20)) break;
  }
  efd::ingest::SampleBufferPool pool;
  efd::ingest::FrameDecoder decoder;
  decoder.set_buffer_pool(&pool);
  Message message;
  constexpr std::size_t kChunk = 64 * 1024;
  for (std::size_t offset = 0; offset < stream.size(); offset += kChunk) {
    const std::size_t size = std::min(kChunk, stream.size() - offset);
    std::uint64_t samples = 0;
    const std::int64_t start = now_ns();
    decoder.feed(stream.data() + offset, size);
    while (decoder.next(message) == efd::ingest::DecodeStatus::kMessage) {
      samples += message.samples.size();
      if (!message.samples.empty()) pool.release(std::move(message.samples));
    }
    log.add("ingest.decode", start, now_ns(), 0, samples);
  }
}

/// online: push_batch, process_pending, close_job and snapshot_capture on
/// a fresh single-threaded deferred service fed the probe jobs, eight at
/// a time, second by second.
void probe_online(const Inputs& inputs, const std::vector<ProbeJob>& jobs, SpanLog& log) {
  efd::core::RecognitionServiceConfig config;
  config.deferred = true;
  efd::core::RecognitionService service(
      efd::core::ShardedDictionary::load_file(inputs.dict_path), config);
  efd::core::SnapshotChainState chain;
  const auto& metrics = inputs.dataset.metric_names();
  std::vector<efd::core::RecognitionService::SamplePush> batch;
  constexpr std::size_t kGroup = 8;
  constexpr std::size_t kDrainEvery = 64;
  std::uint64_t pending_samples = 0;
  std::size_t pushes = 0;
  const auto drain = [&] {
    if (pending_samples == 0) return;
    const std::int64_t start = now_ns();
    service.process_pending();
    log.add("online.process_pending", start, now_ns(), 0, pending_samples);
    pending_samples = 0;
  };
  for (std::size_t first = 0; first < jobs.size(); first += kGroup) {
    const std::size_t last = std::min(jobs.size(), first + kGroup);
    std::int32_t ticks = 0;
    for (std::size_t j = first; j < last; ++j) {
      const auto& record = inputs.dataset.record(inputs.serve[jobs[j].serve_pos]);
      service.open_job(j + 1, static_cast<std::uint32_t>(record.node_count()));
      ticks = std::max(ticks, jobs[j].ticks);
    }
    for (std::int32_t tick = 0; tick < ticks; ++tick) {
      if (tick == ticks / 2) {
        // One capture per group while its streams are open, as the
        // pipeline's verdict cadence takes them mid-traffic.
        drain();
        std::ostringstream capture;
        const std::int64_t start = now_ns();
        const auto info = service.snapshot_capture(capture, chain);
        log.add("online.snapshot_capture", start, now_ns(), 0, info.bytes);
      }
      for (std::size_t j = first; j < last; ++j) {
        if (tick >= jobs[j].ticks) continue;
        const auto& record = inputs.dataset.record(inputs.serve[jobs[j].serve_pos]);
        for (std::uint32_t node = 0; node < record.node_count(); ++node) {
          batch.clear();
          for (std::size_t slot = 0; slot < metrics.size(); ++slot) {
            const auto& series = record.series(node, slot);
            if (static_cast<std::size_t>(tick) >= series.size()) continue;
            batch.push_back({node, tick, series[static_cast<std::size_t>(tick)],
                             metrics[slot]});
          }
          const std::int64_t start = now_ns();
          service.push_batch(j + 1, batch);
          log.add("online.push_batch", start, now_ns(), j + 1, batch.size());
          pending_samples += batch.size();
          if (++pushes % kDrainEvery == 0) drain();
        }
      }
    }
    drain();
    for (std::size_t j = first; j < last; ++j) {
      const std::int64_t start = now_ns();
      service.close_job(j + 1);
      log.add("online.close_job", start, now_ns(), j + 1, 1);
    }
    service.drain_verdicts();
  }
}

/// core: dictionary load, index compile, rounding, probing and scoring on
/// the probe jobs' own windows and fingerprint keys; retrain: one traced
/// train + gate on a recorder-sized window.
void probe_core(const Inputs& inputs,
                const std::vector<ProbeJob>& jobs, SpanLog& log,
                std::map<std::string, double>& metrics) {
  std::int64_t start = now_ns();
  efd::core::ShardedDictionary dictionary =
      efd::core::ShardedDictionary::load_file(inputs.dict_path);
  log.add("core.dict_load", start, now_ns(), 0, dictionary.size());
  const auto entries = dictionary.sorted_entries();
  start = now_ns();
  const auto index = efd::core::DictionaryIndex::compile(entries);
  log.add("core.index_compile", start, now_ns(), 0, index->key_count());
  metrics["core.index_bytes"] = static_cast<double>(index->resident_bytes());
  dictionary.compile_probe_index();

  // Distinct probe records, their keys and raw window means.
  std::vector<std::uint32_t> positions;
  for (const ProbeJob& job : jobs) positions.push_back(job.serve_pos);
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()), positions.end());
  if (positions.size() > 64) positions.resize(64);
  std::vector<std::size_t> slots(inputs.dataset.metric_names().size());
  for (std::size_t s = 0; s < slots.size(); ++s) slots[s] = s;
  std::vector<std::vector<efd::core::FingerprintKey>> keys;
  std::vector<double> means;
  for (const std::uint32_t pos : positions) {
    const auto& record = inputs.dataset.record(inputs.serve[pos]);
    keys.push_back(efd::core::build_fingerprints(record, inputs.fingerprint, slots));
    for (std::size_t node = 0; node < record.node_count(); ++node) {
      for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        const auto& series = record.series(node, slot);
        for (const auto& interval : inputs.fingerprint.intervals) {
          double sum = 0.0;
          std::size_t count = 0;
          for (int t = interval.begin_seconds;
               t < interval.end_seconds && static_cast<std::size_t>(t) < series.size(); ++t) {
            sum += series[static_cast<std::size_t>(t)];
            ++count;
          }
          means.push_back(count > 0 ? sum / static_cast<double>(count) : 0.0);
        }
      }
    }
  }

  constexpr int kPasses = 20;
  std::vector<double> lanes;
  for (int pass = 0; pass < kPasses; ++pass) {
    lanes = means;
    start = now_ns();
    efd::core::round_lanes(lanes, inputs.fingerprint.rounding_depth);
    log.add("core.round_lanes", start, now_ns(), 0, lanes.size());
  }
  std::uint64_t hits = 0;
  std::uint64_t probes = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& record_keys : keys) {
      start = now_ns();
      std::uint64_t found = 0;
      for (const auto& key : record_keys) found += index->find(key) != nullptr ? 1 : 0;
      log.add("core.index_find", start, now_ns(), 0, record_keys.size());
      hits += found;
      probes += record_keys.size();
    }
  }
  metrics["core.probe_hit_ratio"] =
      probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
  const efd::core::Matcher matcher(dictionary);
  efd::core::RecognitionScratch scratch;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& record_keys : keys) {
      start = now_ns();
      matcher.recognize_keys_into(record_keys, scratch);
      log.add("core.recognize_keys_into", start, now_ns(), 0, 1);
    }
  }

  // retrain: the controller's default window (32 jobs per application)
  // from the train split, gated on up to 64 served records.
  std::map<std::string, std::size_t> per_app;
  std::vector<std::size_t> window;
  for (const std::size_t index_in_dataset : inputs.train) {
    const auto& app = inputs.dataset.record(index_in_dataset).label().application;
    if (per_app[app]++ < 32) window.push_back(index_in_dataset);
  }
  std::vector<std::size_t> holdout_indices(inputs.serve.begin(),
                                           inputs.serve.begin() +
                                               std::min<std::size_t>(64, inputs.serve.size()));
  const efd::telemetry::Dataset holdout = inputs.dataset.subset(holdout_indices);
  start = now_ns();
  const efd::core::ShardedDictionary candidate = efd::core::train_dictionary_sharded(
      inputs.dataset, inputs.fingerprint, window);
  log.add("retrain.train", start, now_ns(), 0, window.size());
  start = now_ns();
  efd::retrain::evaluate_gate(candidate, dictionary, holdout, {});
  log.add("retrain.gate", start, now_ns(), 0, holdout.size());
}

double per_item(const SpanLog& log, const char* name) {
  const auto [ns, items] = log.totals(name);
  return items > 0 ? static_cast<double>(ns) / static_cast<double>(items) : 0.0;
}

}  // namespace

LayerReport run_traced_pass(const WorkloadSpec& spec, const Inputs& inputs,
                            const Plan& plan, const std::string& run_dir,
                            const std::string& trace_path) {
  LayerReport report;
  auto& metrics = report.metrics;
  DriveResult untraced;
  {
    InProcessServer server(spec, inputs, run_dir, nullptr);
    TcpLink tcp(server.endpoints.tcp);
    untraced = drive(spec, plan, server.endpoints, tcp, nullptr);
  }
  DriveScore untraced_score = score_drive(inputs, plan, untraced);
  report.parity = std::move(untraced_score.parity);
  const double untraced_p50_us = percentile(untraced_score.latency_us, 50.0);

  ServerTrace server_trace(plan.schedule.jobs.size());
  ClientTrace client_trace;
  DriveResult result;
  {
    InProcessServer server(spec, inputs, run_dir, &server_trace);
    TcpLink tcp(server.endpoints.tcp);
    result = drive(spec, plan, server.endpoints, tcp, &client_trace);
  }
  DriveScore score = score_drive(inputs, plan, result);
  report.parity.merge(score.parity);
  const double traced_p50_us = percentile(score.latency_us, 50.0);

  SpanLog critical("critical_path");
  metrics["trace.unattributed_share"] =
      unattributed_share(result, client_trace, server_trace, critical);
  if (untraced_p50_us > 0.0 && traced_p50_us > 0.0) {
    metrics["trace.overhead_ratio"] = traced_p50_us / untraced_p50_us;
  }
  metrics["ingest.poll_ns_per_sample"] =
      server_trace.samples > 0 ? static_cast<double>(server_trace.poll_ns) /
                                     static_cast<double>(server_trace.samples)
                               : 0.0;
  metrics["ingest.envelopes_per_poll"] =
      server_trace.polls_with_data > 0
          ? static_cast<double>(server_trace.envelopes) /
                static_cast<double>(server_trace.polls_with_data)
          : 0.0;
  metrics["ingest.send_ns_per_verdict"] =
      server_trace.verdicts_sent > 0 ? static_cast<double>(server_trace.send_ns) /
                                           static_cast<double>(server_trace.verdicts_sent)
                                     : 0.0;
  metrics["ingest.flush_wait_p99_us"] = percentile(server_trace.flush_wait_ns, 99.0) / 1e3;
  metrics["online.verdict_lag_p99_us"] = percentile(server_trace.verdict_lag_ns, 99.0) / 1e3;

  SpanLog probes("layer_probes");
  probe_decode(plan, probes);
  const std::vector<ProbeJob> jobs = probe_jobs(inputs, plan, result.jobs);
  probe_online(inputs, jobs, probes);
  probe_core(inputs, jobs, probes, metrics);

  metrics["ingest.decode_ns_per_sample"] = per_item(probes, "ingest.decode");
  metrics["online.push_batch_ns_per_sample"] = per_item(probes, "online.push_batch");
  metrics["online.drain_ns_per_sample"] = per_item(probes, "online.process_pending");
  metrics["online.close_ns"] = median(probes.durations("online.close_job"));
  metrics["online.snapshot_capture_ms"] =
      median(probes.durations("online.snapshot_capture")) / 1e6;
  std::vector<double> snapshot_bytes;
  for (const Span& span : probes.spans()) {
    if (std::strcmp(span.name, "online.snapshot_capture") == 0) {
      snapshot_bytes.push_back(static_cast<double>(span.items));
    }
  }
  metrics["online.snapshot_bytes"] = median(std::move(snapshot_bytes));
  metrics["core.round_ns_per_lane"] = per_item(probes, "core.round_lanes");
  metrics["core.probe_ns_per_key"] = per_item(probes, "core.index_find");
  metrics["core.score_ns_per_verdict"] = median(probes.durations("core.recognize_keys_into"));
  metrics["core.dict_load_s"] = probes.totals("core.dict_load").first / 1e9;
  metrics["core.index_build_s"] = probes.totals("core.index_compile").first / 1e9;
  metrics["retrain.cycle_s"] = (probes.totals("retrain.train").first +
                                probes.totals("retrain.gate").first) / 1e9;

  // Gaps between retrain cycles: reports that reach the connection within
  // 50 ms of each other belong to the same cycle.
  std::vector<double> report_gaps;
  std::int64_t last_cycle = 0;
  for (const std::int64_t at : result.retrain_reports_ns) {
    if (last_cycle != 0 && at - last_cycle < 50'000'000) continue;
    if (last_cycle != 0) report_gaps.push_back(static_cast<double>(at - last_cycle) / 1e9);
    last_cycle = at;
  }
  std::printf("# traced pass: %zu kRetrainReport frames, median gap between cycles %.3f s; "
              "traced train + gate call %.3f s\n",
              result.retrain_reports_ns.size(), median(report_gaps),
              metrics["retrain.cycle_s"]);

  std::ofstream out(trace_path);
  const SpanLog* logs[] = {&critical, &probes};
  write_spans_jsonl(out, logs);
  return report;
}

}  // namespace perfbench
