#include "ingest/pipeline.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "core/online/service_snapshot.hpp"
#include "core/rounding_kernel.hpp"
#include "ingest/buffer_pool.hpp"
#include "ingest/snapshot_chain.hpp"
#include "ingest/subscription.hpp"
#include "obs/exposition.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "retrain/retrain_controller.hpp"
#include "util/thread_pool.hpp"

namespace efd::ingest {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Minimal JSON string escape for /index values (source names, error
// text): quotes, backslashes, and control bytes.
std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Message make_verdict_message(const core::JobVerdict& verdict) {
  Message message;
  message.type = MessageType::kVerdict;
  message.job_id = verdict.job_id;
  message.verdict.recognized = verdict.result.recognized;
  message.verdict.matched =
      static_cast<std::uint32_t>(verdict.result.matched_count);
  message.verdict.fingerprints =
      static_cast<std::uint32_t>(verdict.result.fingerprint_count);
  message.verdict.application = verdict.result.prediction();
  message.verdict.label = verdict.result.label_prediction();
  return message;
}

IngestPipeline::IngestPipeline(core::RecognitionService& service,
                               SourceMux& sources,
                               IngestPipelineConfig config,
                               util::ThreadPool* pool)
    : service_(service), sources_(&sources), config_(config), pool_(pool) {
  init_observability();
}

IngestPipeline::IngestPipeline(core::RecognitionService& service,
                               SampleSource& source,
                               IngestPipelineConfig config,
                               util::ThreadPool* pool)
    : service_(service),
      owned_mux_(std::make_unique<SourceMux>()),
      sources_(owned_mux_.get()),
      config_(config),
      pool_(pool) {
  owned_mux_->add_source("source", source);
  init_observability();
}

void IngestPipeline::init_observability() {
  start_ns_ = steady_now_ns();
  if (config_.http_port < 0) return;
  // Started here, not in run(): readiness probes should see the endpoint
  // as soon as the process constructed its pipeline, and a bind conflict
  // should fail construction loudly instead of surfacing mid-serve.
  http_ = std::make_unique<obs::HttpServer>(
      static_cast<std::uint16_t>(config_.http_port),
      [this](const obs::HttpRequest& request) {
        obs::HttpResponse response;
        if (request.target == "/metrics") {
          response.content_type = "text/plain; version=0.0.4; charset=utf-8";
          response.body =
              obs::render_metrics(render_stats_text(), obs::global_metrics());
        } else if (request.target == "/index") {
          response.content_type = "application/json";
          response.body = render_index_json();
        } else if (request.target == "/healthz") {
          response.content_type = "application/json";
          response.body = "{\"status\":\"ok\",\"role\":\"leader\"}\n";
        } else {
          response.status = 404;
          response.body = "not found\n";
        }
        return response;
      });
}

std::uint16_t IngestPipeline::http_port() const noexcept {
  return http_ != nullptr ? http_->port() : 0;
}

IngestPipeline::~IngestPipeline() {
  stop();
  join();
}

void IngestPipeline::start() {
  thread_ = std::thread([this] { run(); });
}

void IngestPipeline::join() {
  if (thread_.joinable()) thread_.join();
}

void IngestPipeline::maybe_rebind_reply(
    std::uint64_t job_id, const std::shared_ptr<VerdictSink>& reply,
    SourceId source) {
  // A job restored from a snapshot is open in the service but has no
  // reply route (its emitter's connection died with the old process).
  // Bind it to the first (source, connection) that streams it, so a
  // reconnecting emitter — on whichever transport it comes back over —
  // receives the verdict it is still owed.
  if (reply == nullptr || replies_.contains(job_id)) return;
  if (!service_.has_job(job_id)) return;
  replies_[job_id] = ReplyRoute{reply, source};
  jobs_rebound_.fetch_add(1, std::memory_order_relaxed);
}

void IngestPipeline::deliver_parked(
    std::uint64_t job_id, const std::shared_ptr<VerdictSink>& reply,
    SourceId source) {
  if (reply == nullptr || parked_verdicts_.empty()) return;
  const auto it = parked_verdicts_.find(job_id);
  if (it == parked_verdicts_.end()) return;
  reply->deliver(it->second);
  parked_verdicts_.erase(it);
  sources_->note_verdict(source);
  verdicts_delivered_.fetch_add(1, std::memory_order_relaxed);
}

void IngestPipeline::observe_sink(const std::shared_ptr<VerdictSink>& reply) {
  if (config_.retrain == nullptr || reply == nullptr) return;
  // Assign, never try_emplace: a new connection's sink can be allocated
  // at a freed sink's address, and the stale expired entry would
  // otherwise shadow it forever.
  observers_[reply.get()] = reply;
  // Bound the map across connection churn even when no retrain cycle
  // ever publishes (the other pruning point). Sweep only when the map
  // has grown past twice its post-sweep size: genuinely amortized — a
  // steady population of live connections never re-pays the scan on
  // every message.
  if (observers_.size() >= observers_sweep_at_) {
    for (auto it = observers_.begin(); it != observers_.end();) {
      it = it->second.expired() ? observers_.erase(it) : std::next(it);
    }
    observers_sweep_at_ = std::max<std::size_t>(64, observers_.size() * 2);
  }
}

void IngestPipeline::dispatch(Envelope& envelope) {
  Message& message = envelope.message;
  observe_sink(envelope.reply);
  switch (message.type) {
    case MessageType::kOpenJob:
      deliver_parked(message.job_id, envelope.reply, envelope.source);
      if (service_.open_job(message.job_id, message.node_count,
                            envelope.source)) {
        jobs_opened_.fetch_add(1, std::memory_order_relaxed);
        replies_[message.job_id] =
            ReplyRoute{envelope.reply, envelope.source};
        if (config_.retrain != nullptr) {
          config_.retrain->recorder().job_opened(
              message.job_id, message.node_count, envelope.source);
        }
      } else {
        open_rejected_.fetch_add(1, std::memory_order_relaxed);
        // Open for a job restored from a snapshot: the stream already
        // exists, but the new connection is its emitter now.
        maybe_rebind_reply(message.job_id, envelope.reply, envelope.source);
      }
      break;
    case MessageType::kSampleBatch: {
      deliver_parked(message.job_id, envelope.reply, envelope.source);
      maybe_rebind_reply(message.job_id, envelope.reply, envelope.source);
      // One stream resolution + lock cycle per wire batch, not per
      // sample (the dispatch thread's hot path).
      scratch_.clear();
      scratch_.reserve(message.samples.size());
      for (const WireSample& sample : message.samples) {
        scratch_.push_back({sample.node_id, sample.t, sample.value,
                            std::string_view(sample.metric)});
      }
      service_.push_batch(message.job_id, scratch_);
      samples_.fetch_add(message.samples.size(), std::memory_order_relaxed);
      if (config_.retrain != nullptr) {
        // Zero-copy capture tap: this batch is fully dispatched; the
        // recorder moves the samples it wants out of the vector.
        config_.retrain->recorder().record_batch(message.job_id,
                                                 std::move(message.samples));
      }
      // The batch is consumed either way; recycle its backing buffer
      // (and the string capacity of any samples the tap left behind)
      // for the decoder's next acquire — back to the pool it came from
      // (the owning server's, or the process-global default).
      SampleBufferPool& pool =
          envelope.pool != nullptr ? *envelope.pool : sample_buffer_pool();
      pool.release(std::move(message.samples));
      break;
    }
    case MessageType::kCloseJob:
      deliver_parked(message.job_id, envelope.reply, envelope.source);
      maybe_rebind_reply(message.job_id, envelope.reply, envelope.source);
      if (service_.close_job(message.job_id)) {
        jobs_closed_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case MessageType::kShutdown:
      if (config_.stop_on_shutdown_message) stop();
      break;
    case MessageType::kSwapDictionary: {
      if (!config_.allow_dictionary_swap) {
        swaps_rejected_.fetch_add(1, std::memory_order_relaxed);
        if (envelope.reply != nullptr) {
          envelope.reply->deliver(make_swap_ack(
              false, service_.dictionary_handle().version(),
              "dictionary swap disabled on this endpoint"));
        }
        break;
      }
      try {
        std::istringstream blob(
            std::string(message.dictionary_blob.begin(),
                        message.dictionary_blob.end()));
        core::ShardedDictionary next = core::ShardedDictionary::load(
            blob, service_.dictionary().shard_count());
        const auto outcome = service_.swap_dictionary(std::move(next));
        if (outcome.already_active) {
          // A byte-identical candidate must not burn an epoch; tell the
          // operator their push was a no-op instead of acking a "new"
          // epoch that never existed.
          swaps_rejected_.fetch_add(1, std::memory_order_relaxed);
          if (envelope.reply != nullptr) {
            envelope.reply->deliver(make_swap_ack(
                false, outcome.epoch,
                "already-active: candidate is identical to the live "
                "dictionary"));
          }
          break;
        }
        dictionary_swaps_.fetch_add(1, std::memory_order_relaxed);
        if (envelope.reply != nullptr) {
          envelope.reply->deliver(make_swap_ack(true, outcome.epoch));
        }
      } catch (const std::exception& error) {
        swaps_rejected_.fetch_add(1, std::memory_order_relaxed);
        if (envelope.reply != nullptr) {
          envelope.reply->deliver(
              make_swap_ack(false, service_.dictionary_handle().version(),
                            error.what()));
        }
      }
      break;
    }
    case MessageType::kStatsRequest:
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      if (envelope.reply != nullptr) {
        envelope.reply->deliver(make_stats_reply(render_stats_text()));
      }
      break;
    case MessageType::kFollowRequest:
      handle_follow_request(envelope);
      break;
    case MessageType::kSubscribe:
      handle_subscribe(envelope);
      break;
    case MessageType::kSnapAck:
      // A follower's receipt: the capture is durable on ITS disk (or
      // was rejected — the follower re-handshakes on its own).
      (envelope.message.snap_ack.ok ? snap_acks_ok_ : snap_acks_failed_)
          .fetch_add(1, std::memory_order_relaxed);
      break;
    case MessageType::kPromote:
      // Promotion is a follower-side operation; a leader politely
      // declines so `efd_cli promote` pointed at the wrong endpoint
      // fails loudly instead of hanging.
      unexpected_messages_.fetch_add(1, std::memory_order_relaxed);
      if (envelope.reply != nullptr) {
        envelope.reply->deliver(
            make_promote_ack(false, 0, "this endpoint is not a follower"));
      }
      break;
    case MessageType::kVerdict:
    case MessageType::kSwapAck:
    case MessageType::kStatsReply:
    case MessageType::kRetrainReport:
    case MessageType::kSnapBase:
    case MessageType::kSnapDelta:
    case MessageType::kPromoteAck:
    case MessageType::kSubscribeAck:
    case MessageType::kVerdictEvent:
    default:
      // Verdicts, acks, stats replies, retrain reports, and replicated
      // captures flow outbound only; anything else is a peer bug.
      unexpected_messages_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void IngestPipeline::handle_subscribe(Envelope& envelope) {
  if (envelope.reply == nullptr) {
    // Fire-and-forget transport (UDP, replayed file): there is no
    // channel to stream events back on, so the subscription is a peer
    // bug, not a half-honorable request.
    unexpected_messages_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (hub_ == nullptr) {
    // Lazy: a pipeline nobody subscribes to never pays for the hub's
    // dispatcher thread. Created on the run() thread; readers (stats,
    // /metrics) see it only through the released pointer below.
    hub_ = std::make_unique<SubscriptionHub>(config_.subscriber_queue_capacity);
    hub_ptr_.store(hub_.get(), std::memory_order_release);
  }
  const std::uint64_t id =
      hub_->subscribe(envelope.reply, std::move(envelope.message.subscribe));
  subscribe_requests_.fetch_add(1, std::memory_order_relaxed);
  envelope.reply->deliver(make_subscribe_ack(true, id));
}

std::string IngestPipeline::render_stats_text() const {
  // One "name value" line per counter — the grep/awk-able precursor of a
  // Prometheus-style endpoint. Names are stable: downstream tooling
  // diffs them across scrapes.
  std::ostringstream out;
  const core::RecognitionServiceStats service = service_.stats();
  out << "service.active_jobs " << service.active_jobs << "\n"
      << "service.pending_verdicts " << service.pending_verdicts << "\n"
      << "service.queued_samples " << service.queued_samples << "\n"
      << "service.jobs_opened " << service.jobs_opened << "\n"
      << "service.jobs_completed " << service.jobs_completed << "\n"
      << "service.jobs_evicted " << service.jobs_evicted << "\n"
      << "service.samples_pushed " << service.samples_pushed << "\n"
      << "service.samples_dropped " << service.samples_dropped << "\n"
      << "service.samples_late " << service.samples_late << "\n"
      << "service.samples_overflowed " << service.samples_overflowed << "\n"
      << "service.samples_rejected " << service.samples_rejected << "\n"
      << "service.pushes_blocked " << service.pushes_blocked << "\n"
      << "service.dictionary_epoch " << service.dictionary_epoch << "\n"
      << "service.dictionary_swaps " << service.dictionary_swaps << "\n"
      << "service.dictionary_swaps_noop " << service.dictionary_swaps_noop
      << "\n"
      << "service.jobs_on_stale_epoch " << service.jobs_on_stale_epoch
      << "\n"
      << "dictionary.index_build_seconds " << service.index_build_seconds
      << "\n"
      << "dictionary.index_bytes " << service.index_bytes << "\n";
  for (const core::SourceIngressStats& ingress : service.by_source) {
    const std::string prefix =
        "service.source." + std::to_string(ingress.source) + ".";
    out << prefix << "jobs_opened " << ingress.jobs_opened << "\n"
        << prefix << "jobs_completed " << ingress.jobs_completed << "\n"
        << prefix << "samples_pushed " << ingress.samples_pushed << "\n";
  }

  const IngestPipelineStats pipeline = stats();
  out << "ingest.envelopes " << pipeline.envelopes << "\n"
      << "ingest.samples " << pipeline.samples << "\n"
      << "ingest.jobs_opened " << pipeline.jobs_opened << "\n"
      << "ingest.open_rejected " << pipeline.open_rejected << "\n"
      << "ingest.jobs_closed " << pipeline.jobs_closed << "\n"
      << "ingest.verdicts_delivered " << pipeline.verdicts_delivered << "\n"
      << "ingest.unexpected_messages " << pipeline.unexpected_messages << "\n"
      << "ingest.sweeps " << pipeline.sweeps << "\n"
      << "ingest.evicted " << pipeline.evicted << "\n"
      << "ingest.snapshots_written " << pipeline.snapshots_written << "\n"
      << "ingest.snapshot_failures " << pipeline.snapshot_failures << "\n"
      << "ingest.snapshot_bases " << pipeline.snapshot_bases << "\n"
      << "ingest.snapshot_deltas " << pipeline.snapshot_deltas << "\n"
      << "ingest.restore_deltas_discarded "
      << pipeline.restore_deltas_discarded << "\n"
      << "ingest.followers_accepted " << pipeline.followers_accepted << "\n"
      << "ingest.follow_rejected " << pipeline.follow_rejected << "\n"
      << "ingest.captures_replicated " << pipeline.captures_replicated << "\n"
      << "ingest.captures_oversize " << pipeline.captures_oversize << "\n"
      << "ingest.snap_acks_ok " << pipeline.snap_acks_ok << "\n"
      << "ingest.snap_acks_failed " << pipeline.snap_acks_failed << "\n"
      << "ingest.jobs_restored " << pipeline.jobs_restored << "\n"
      << "ingest.jobs_rebound " << pipeline.jobs_rebound << "\n"
      << "ingest.dictionary_swaps " << pipeline.dictionary_swaps << "\n"
      << "ingest.swaps_rejected " << pipeline.swaps_rejected << "\n"
      << "ingest.stats_requests " << pipeline.stats_requests << "\n"
      << "ingest.retrain_reports " << pipeline.retrain_reports << "\n"
      << "ingest.subscribe_requests " << pipeline.subscribe_requests << "\n"
      << "ingest.verdict_events " << pipeline.verdict_events << "\n";

  // The scrape format is one value token per line, so the reason text
  // is whitespace-folded; "none" keeps the row present (and diffable)
  // on healthy endpoints.
  std::string snapshot_error = pipeline.snapshot_last_error;
  if (snapshot_error.empty()) {
    snapshot_error = "none";
  } else {
    std::replace_if(
        snapshot_error.begin(), snapshot_error.end(),
        [](unsigned char c) { return std::isspace(c) != 0; }, '_');
  }
  out << "ingest.snapshot_last_error " << snapshot_error << "\n";

  // Process-global sample-buffer pool (sources without their own pool
  // recycle here). hits/misses gauge whether the allocation-free decode
  // loop is actually closed; discards climbing = pool budget too small
  // for the live batch sizes.
  const SampleBufferPool::Stats pool = sample_buffer_pool().stats();
  out << "pool.hits " << pool.hits << "\n"
      << "pool.misses " << pool.misses << "\n"
      << "pool.returns " << pool.returns << "\n"
      << "pool.discards " << pool.discards << "\n";

  // One row block per registered source: the operator's view of WHERE
  // traffic (and loss — drops/gaps on lossy transports) comes from.
  for (const SourceMuxStats& source : sources_->stats()) {
    const std::string prefix = "source." + std::to_string(source.id) + ".";
    out << prefix << "name " << source.name << "\n"
        << prefix << "envelopes " << source.envelopes << "\n"
        << prefix << "samples " << source.samples << "\n"
        << prefix << "verdicts " << source.verdicts << "\n"
        << prefix << "frames " << source.transport.frames << "\n"
        << prefix << "decode_errors " << source.transport.decode_errors
        << "\n"
        << prefix << "drops " << source.transport.drops << "\n"
        << prefix << "gaps " << source.transport.gaps << "\n"
        << prefix << "blocked " << source.transport.blocked << "\n"
        << prefix << "retransmits " << source.transport.retransmits << "\n"
        << prefix << "restored_cursor " << source.restored_cursor << "\n"
        << prefix << "exhausted " << (source.exhausted ? 1 : 0) << "\n";
    if (source.has_pool) {
      // The source's own buffer pool (servers that decode frames).
      out << prefix << "pool_hits " << source.pool.hits << "\n"
          << prefix << "pool_misses " << source.pool.misses << "\n"
          << prefix << "pool_returns " << source.pool.returns << "\n"
          << prefix << "pool_discards " << source.pool.discards << "\n";
    }
  }

  if (config_.retrain != nullptr) {
    const retrain::RetrainStats retrain = config_.retrain->stats();
    out << "retrain.cycles_triggered " << retrain.cycles_triggered << "\n"
        << "retrain.cycles_trained " << retrain.cycles_trained << "\n"
        << "retrain.cycles_promoted " << retrain.cycles_promoted << "\n"
        << "retrain.cycles_gated_out " << retrain.cycles_gated_out << "\n"
        << "retrain.cycles_already_active " << retrain.cycles_already_active
        << "\n"
        << "retrain.cycles_skipped_no_data "
        << retrain.cycles_skipped_no_data << "\n"
        << "retrain.cycles_failed " << retrain.cycles_failed << "\n"
        << "retrain.cycles_dry_run " << retrain.cycles_dry_run << "\n"
        << "retrain.last_cycle " << retrain.last_cycle << "\n"
        << "retrain.last_promoted_epoch " << retrain.last_promoted_epoch
        << "\n"
        << "retrain.last_candidate_score " << retrain.last_candidate_score
        << "\n"
        << "retrain.last_incumbent_score " << retrain.last_incumbent_score
        << "\n";
    const retrain::TrafficRecorderStats recorder =
        config_.retrain->recorder().stats();
    out << "retrain.window_jobs " << recorder.window_jobs << "\n"
        << "retrain.window_samples " << recorder.window_samples << "\n"
        << "retrain.window_applications " << recorder.applications << "\n"
        << "retrain.jobs_captured " << recorder.jobs_captured << "\n"
        << "retrain.jobs_admitted " << recorder.jobs_admitted << "\n"
        << "retrain.jobs_replaced " << recorder.jobs_replaced << "\n"
        << "retrain.jobs_sampled_out " << recorder.jobs_sampled_out << "\n"
        << "retrain.jobs_unrecognized " << recorder.jobs_unrecognized << "\n"
        << "retrain.jobs_untracked " << recorder.jobs_untracked << "\n"
        << "retrain.samples_recorded " << recorder.samples_recorded << "\n"
        << "retrain.samples_filtered " << recorder.samples_filtered << "\n"
        << "retrain.window_resets " << recorder.window_resets << "\n";
  }

  // Process identity and age — folded into efd_build_info /
  // efd_uptime_seconds by the Prometheus exposition.
  out << "uptime.seconds "
      << (steady_now_ns() - start_ns_) / 1'000'000'000 << "\n"
      << "build.version " << obs::build_version() << "\n"
      << "build.sha " << obs::build_sha() << "\n"
      << "build.kernel " << core::kernel_name() << "\n";

  // One row block per live verdict subscriber: delivered/dropped tell an
  // operator WHICH consumer is too slow for the verdict rate.
  if (const SubscriptionHub* hub = hub_ptr_.load(std::memory_order_acquire)) {
    for (const SubscriptionHub::SubscriberStats& sub : hub->stats()) {
      const std::string prefix = "subscriber." + std::to_string(sub.id) + ".";
      out << prefix << "delivered " << sub.delivered << "\n"
          << prefix << "dropped " << sub.dropped << "\n"
          << prefix << "queued " << sub.queued << "\n";
    }
  }

  // Deterministic row order: the blocks above are emitted in code order,
  // but consumers diff scrapes and the Prometheus renderer groups rows
  // into families — a global lexicographic sort makes both stable no
  // matter how the blocks above grow or reorder.
  std::string text = std::move(out).str();
  std::vector<std::string_view> rows;
  for (std::size_t at = 0; at < text.size();) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    rows.push_back(std::string_view(text).substr(at, end - at));
    at = end + 1;
  }
  std::sort(rows.begin(), rows.end());
  std::string sorted;
  sorted.reserve(text.size());
  for (const std::string_view row : rows) {
    sorted.append(row);
    sorted.push_back('\n');
  }
  return sorted;
}

std::string IngestPipeline::render_index_json() const {
  // Everything here reads thread-safe snapshots (service stats, mux
  // stats, this pipeline's atomics) — callable from the HTTP thread
  // while run() is mid-poll.
  constexpr std::size_t kMaxListedJobs = 256;
  const core::RecognitionServiceStats service = service_.stats();
  const std::vector<std::uint64_t> jobs = service_.open_job_ids();
  const IngestPipelineStats pipeline = stats();

  std::ostringstream out;
  out << "{\"uptime_seconds\":"
      << (steady_now_ns() - start_ns_) / 1'000'000'000
      << ",\"build\":{\"version\":\"" << json_escape(obs::build_version())
      << "\",\"sha\":\"" << json_escape(obs::build_sha())
      << "\",\"kernel\":\"" << json_escape(core::kernel_name()) << "\"}"
      << ",\"dictionary\":{\"epoch\":" << service.dictionary_epoch
      << ",\"swaps\":" << service.dictionary_swaps << "}";

  out << ",\"jobs\":{\"active\":" << service.active_jobs
      << ",\"pending_verdicts\":" << service.pending_verdicts << ",\"ids\":[";
  const std::size_t listed = std::min(jobs.size(), kMaxListedJobs);
  for (std::size_t i = 0; i < listed; ++i) {
    if (i != 0) out << ',';
    out << jobs[i];
  }
  out << "],\"ids_truncated\":" << (jobs.size() > listed ? "true" : "false")
      << "}";

  out << ",\"sources\":[";
  bool first = true;
  for (const SourceMuxStats& source : sources_->stats()) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":" << source.id << ",\"name\":\""
        << json_escape(source.name) << "\",\"envelopes\":" << source.envelopes
        << ",\"samples\":" << source.samples
        << ",\"verdicts\":" << source.verdicts
        << ",\"exhausted\":" << (source.exhausted ? "true" : "false") << "}";
  }
  out << "]";

  out << ",\"snapshot_chain\":{\"length\":"
      << chain_length_.load(std::memory_order_relaxed)
      << ",\"last_capture_id\":"
      << chain_last_capture_id_.load(std::memory_order_relaxed)
      << ",\"written\":" << pipeline.snapshots_written
      << ",\"failures\":" << pipeline.snapshot_failures
      << ",\"last_error\":\"" << json_escape(pipeline.snapshot_last_error)
      << "\"}";

  out << ",\"followers\":{\"live\":"
      << followers_live_.load(std::memory_order_relaxed)
      << ",\"accepted\":" << pipeline.followers_accepted << "}";

  out << ",\"subscribers\":[";
  if (const SubscriptionHub* hub = hub_ptr_.load(std::memory_order_acquire)) {
    first = true;
    for (const SubscriptionHub::SubscriberStats& sub : hub->stats()) {
      if (!first) out << ',';
      first = false;
      out << "{\"id\":" << sub.id << ",\"delivered\":" << sub.delivered
          << ",\"dropped\":" << sub.dropped << ",\"queued\":" << sub.queued
          << "}";
    }
  }
  out << "]}\n";
  return std::move(out).str();
}

void IngestPipeline::publish_retrain_reports() {
  if (config_.retrain == nullptr) return;
  const std::vector<retrain::RetrainReport> reports =
      config_.retrain->drain_reports();
  if (reports.empty()) return;
  for (const retrain::RetrainReport& report : reports) {
    WireRetrainReport wire;
    wire.cycle = report.cycle;
    wire.outcome = static_cast<std::uint8_t>(report.outcome);
    wire.epoch = report.epoch;
    wire.candidate_score = report.candidate_score;
    wire.incumbent_score = report.incumbent_score;
    wire.window_jobs = report.window_jobs;
    wire.holdout_jobs = report.holdout_jobs;
    const Message message = make_retrain_report(wire);
    for (auto it = observers_.begin(); it != observers_.end();) {
      if (const auto sink = it->second.lock()) {
        sink->deliver(message);
        retrain_reports_.fetch_add(1, std::memory_order_relaxed);
        ++it;
      } else {
        it = observers_.erase(it);  // connection is gone
      }
    }
  }
}

void IngestPipeline::set_snapshot_error(std::string reason) {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  snapshot_last_error_ = std::move(reason);
}

void IngestPipeline::write_snapshot() {
  // Encode the capture in memory first: base (full, Dictionary
  // included) when the dictionary epoch moved or the chain is at its
  // length limit, an incremental delta otherwise.
  std::ostringstream buffer(std::ios::binary);
  core::SnapshotCaptureInfo info;
  try {
    std::vector<std::uint8_t> retrain_state;
    if (config_.retrain != nullptr) {
      retrain_state = config_.retrain->encode_state();
    }
    // One named resume cursor per registered source (its lifetime
    // envelope count), alongside the legacy aggregate cursor. Only
    // genuinely multi-source pipelines write the extended Meta body:
    // a single-source deployment's per-source cursor would be
    // redundant with the aggregate.
    std::vector<core::SourceCursor> cursors;
    const std::vector<SourceMuxStats> source_stats = sources_->stats();
    if (source_stats.size() > 1) {
      for (const SourceMuxStats& source : source_stats) {
        cursors.push_back({source.name, source.envelopes});
      }
    }
    const bool force_base =
        config_.snapshot_chain_limit == 0 ||
        chain_.deltas_since_base >= config_.snapshot_chain_limit;
    info = service_.snapshot_capture(
        buffer, chain_, force_base,
        envelopes_.load(std::memory_order_relaxed), retrain_state, cursors);
  } catch (const std::exception& error) {
    // Durability is best-effort while serving: count it, surface the
    // reason in the scrape, keep going. The chain state is untouched
    // (snapshot_capture commits only on success).
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    set_snapshot_error(error.what());
    return;
  }

  const std::string blob = std::move(buffer).str();
  const std::string target =
      info.base ? config_.snapshot_path
                : delta_path(config_.snapshot_path, info.capture_id);
  std::string error;
  if (!write_file_durable(target, blob.data(), blob.size(), &error)) {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    set_snapshot_error(target + ": " + error);
    // The capture id is burned but its bytes never became durable, so
    // the on-disk chain no longer links to the in-memory one: force
    // the next capture to start a fresh base.
    chain_.last_capture_id = 0;
    return;
  }
  if (info.base) {
    // The new base supersedes every delta. Deleting AFTER the rename
    // means a crash in between leaves stale deltas whose parent ids no
    // longer chain — which restore detects and discards loudly in
    // favor of this (correct) base.
    remove_chain_deltas(config_.snapshot_path);
    snapshot_bases_.fetch_add(1, std::memory_order_relaxed);
    chain_records_.clear();
  } else {
    snapshot_deltas_.fetch_add(1, std::memory_order_relaxed);
  }

  // Remember the capture for follower catch-up and stream it to every
  // live follower. 18 = the kSnapBase/kSnapDelta frame's own header
  // (u32 len | version | type | u64 capture_id | u64 parent_id).
  ChainRecord record;
  record.base = info.base;
  record.capture_id = info.capture_id;
  record.parent_id = info.parent_id;
  if (blob.size() + 18 <= kMaxFrameBytes) {
    record.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        blob.begin(), blob.end());
  }
  if (!followers_.empty()) {
    if (record.bytes == nullptr) {
      captures_oversize_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const Message frame =
          make_snap_capture(record.base, record.capture_id, record.parent_id,
                            std::vector<std::uint8_t>(*record.bytes));
      for (auto it = followers_.begin(); it != followers_.end();) {
        if (const auto sink = it->lock()) {
          sink->deliver(frame);
          captures_replicated_.fetch_add(1, std::memory_order_relaxed);
          ++it;
        } else {
          it = followers_.erase(it);  // follower is gone
        }
      }
    }
  }
  chain_records_.push_back(std::move(record));
  // Mirror the run()-thread-only chain/follower bookkeeping into atomics
  // for the HTTP /index handler.
  chain_length_.store(chain_records_.size(), std::memory_order_relaxed);
  chain_last_capture_id_.store(info.capture_id, std::memory_order_relaxed);
  followers_live_.store(followers_.size(), std::memory_order_relaxed);

  const std::uint64_t count =
      snapshots_written_.fetch_add(1, std::memory_order_relaxed) + 1;
  verdicts_at_last_snapshot_ =
      verdicts_delivered_.load(std::memory_order_relaxed);
  if (config_.on_snapshot) config_.on_snapshot(count, target);
}

void IngestPipeline::handle_follow_request(Envelope& envelope) {
  if (!config_.allow_followers || envelope.reply == nullptr) {
    // Gated off, or a fire-and-forget transport with no channel to
    // stream captures back on.
    follow_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (envelope.reply != nullptr) {
      envelope.reply->deliver(
          make_snap_ack(false, 0, "followers disabled on this endpoint"));
    }
    return;
  }

  // Catch-up: everything after the follower's durable cursor. A cursor
  // we do not hold (leader restarted, follower from another lineage)
  // gets the full chain — the base resets the follower's local chain.
  std::size_t start = 0;
  if (const std::uint64_t cursor = envelope.message.capture_id; cursor != 0) {
    for (std::size_t i = 0; i < chain_records_.size(); ++i) {
      if (chain_records_[i].capture_id == cursor) {
        start = i + 1;
        break;
      }
    }
  }
  for (std::size_t i = start; i < chain_records_.size(); ++i) {
    const ChainRecord& record = chain_records_[i];
    if (record.bytes == nullptr) {
      // Too large for a wire frame (the kSwapDictionary limitation):
      // nothing after it can apply either. The follower re-syncs at
      // the next base small enough to travel.
      captures_oversize_.fetch_add(1, std::memory_order_relaxed);
      envelope.reply->deliver(make_snap_ack(
          false, record.capture_id,
          "capture exceeds the wire frame limit; awaiting a smaller base"));
      break;
    }
    envelope.reply->deliver(
        make_snap_capture(record.base, record.capture_id, record.parent_id,
                          std::vector<std::uint8_t>(*record.bytes)));
    captures_replicated_.fetch_add(1, std::memory_order_relaxed);
  }

  followers_accepted_.fetch_add(1, std::memory_order_relaxed);
  for (const std::weak_ptr<VerdictSink>& existing : followers_) {
    if (existing.lock() == envelope.reply) return;  // re-handshake, same link
  }
  followers_.push_back(envelope.reply);
  followers_live_.store(followers_.size(), std::memory_order_relaxed);
}

std::uint64_t IngestPipeline::flush_verdicts() {
  // Stage first, ship second: verdicts that drained in one poll cycle
  // and route to the same connection leave in a single deliver_many()
  // call (one vectored syscall on the TCP path) instead of one write
  // per verdict. The staging vectors are members, so a steady verdict
  // rate reuses their capacity allocation-free.
  std::uint64_t delivered = 0;
  obs::HotPathMetrics& hot = obs::hot_path();
  const bool timed = hot.enabled.load(std::memory_order_relaxed);
  const std::int64_t flush_start = timed ? steady_now_ns() : 0;
  // hub_ is created and owned by this (the run()) thread; publish() fans
  // a copy of each verdict out to subscriber queues without ever
  // blocking — slow consumers shed events in the hub, not here.
  SubscriptionHub* const hub =
      hub_ != nullptr && hub_->has_subscribers() ? hub_.get() : nullptr;
  std::vector<Message>& messages = outbound_verdicts_;
  std::vector<ReplyRoute>& routes = outbound_routes_;
  messages.clear();
  routes.clear();
  for (const core::JobVerdict& verdict : service_.drain_verdicts()) {
    if (config_.on_verdict) config_.on_verdict(verdict);
    if (hub != nullptr) {
      const std::uint64_t latency_ns =
          verdict.enqueue_ns > 0 && verdict.verdict_ns > verdict.enqueue_ns
              ? static_cast<std::uint64_t>(verdict.verdict_ns -
                                           verdict.enqueue_ns)
              : 0;
      Message event = make_verdict_message(verdict);
      event.type = MessageType::kVerdictEvent;
      event.verdict_event.source = verdict.source;
      event.verdict_event.latency_ns = latency_ns;
      hub->publish(event, event.verdict.application);
      verdict_events_.fetch_add(1, std::memory_order_relaxed);
    }
    if (config_.retrain != nullptr) {
      // Capture tap: the verdict's label is what the captured samples
      // train under (self-training from served traffic).
      config_.retrain->recorder().job_finished(
          verdict.job_id, verdict.result.recognized,
          verdict.result.label_prediction());
    }
    ++delivered;
    const auto it = replies_.find(verdict.job_id);
    if (it == replies_.end()) continue;
    if (it->second.sink != nullptr) {
      messages.push_back(make_verdict_message(verdict));
      routes.push_back(it->second);
    }
    replies_.erase(it);
  }
  for (std::size_t i = 0; i < messages.size();) {
    std::size_t j = i + 1;
    while (j < messages.size() && routes[j].sink == routes[i].sink) ++j;
    routes[i].sink->deliver_many(
        std::span<const Message>(messages).subspan(i, j - i));
    for (std::size_t k = i; k < j; ++k) {
      // Only an actual delivery counts toward source.<id>.verdicts
      // ("verdicts routed back") — fire-and-forget emitters have no
      // reply channel.
      sources_->note_verdict(routes[k].source);
    }
    i = j;
  }
  messages.clear();
  routes.clear();
  if (delivered > 0) {
    verdicts_delivered_.fetch_add(delivered, std::memory_order_relaxed);
    // Only flushes that moved a verdict are observed — the poll loop
    // calls this every iteration and empty passes would swamp the
    // histogram with no-op timings.
    if (timed) hot.flush_ns.observe(steady_now_ns() - flush_start);
  }
  return delivered;
}

std::uint64_t IngestPipeline::run() {
  // Declare every registered source's tag to the service up front, so a
  // multi-listener deployment shows its service.source.* rows (even
  // all-zero ones) from the first scrape — not only once a job happens
  // to arrive on a non-zero source.
  for (const SourceMuxStats& source : sources_->stats()) {
    service_.register_source_tag(source.id);
  }
  if (config_.restore_on_start && !config_.snapshot_path.empty()) {
    // Only a genuinely ABSENT file is a normal first boot. A snapshot
    // that exists but cannot be opened (permissions, I/O error) — like a
    // corrupt one — throws SnapshotError out of run(): crash recovery
    // with bad state is the operator's call (delete the file to boot
    // fresh), never something to guess past silently.
    std::error_code probe;
    if (std::filesystem::exists(config_.snapshot_path, probe)) {
      const ChainRestoreResult restored =
          restore_service_from_chain(service_, config_.snapshot_path);
      if (!restored.fallback_error.empty()) {
        // The base restored but its delta chain did not: the discard
        // is loud — stderr for the operator, the scrape for monitors —
        // never a silent rewind to older state.
        restore_deltas_discarded_.store(restored.deltas_discarded,
                                        std::memory_order_relaxed);
        set_snapshot_error("restore discarded " +
                           std::to_string(restored.deltas_discarded) +
                           " delta(s): " + restored.fallback_error);
        std::fprintf(stderr,
                     "warning: snapshot chain at %s: discarded %zu delta(s) "
                     "and fell back to the base: %s\n",
                     config_.snapshot_path.c_str(), restored.deltas_discarded,
                     restored.fallback_error.c_str());
      }
      // Continue the restored capture lineage: the next capture is a
      // fresh base whose id follows everything already on disk, so a
      // follower that held the old chain sees a reset, never a rewind.
      chain_.next_capture_id = restored.last_capture_id + 1;
      const core::ServiceRestoreInfo& info = restored.info;
      jobs_restored_.store(info.jobs_restored, std::memory_order_relaxed);
      // Seed per-source envelope counters from the snapshot's named
      // cursors, so lifetime source.<id>.* rows stay continuous across
      // the restart. A cursor whose name no longer matches a registered
      // source (the operator rewired the topology) is dropped — never
      // misattributed to a different transport.
      for (const core::SourceCursor& cursor : info.source_cursors) {
        sources_->seed_cursor(cursor.name, cursor.cursor);
      }
      if (config_.retrain != nullptr &&
          !config_.retrain->restore_state(info.retrain_state)) {
        // The section passed its CRC, so a decode failure is version
        // skew, not bit rot — fail as loudly as any other corrupt
        // snapshot rather than silently zeroing the retrain lineage.
        throw core::SnapshotError("retrain state rejected by controller");
      }
      // Verdicts that completed pre-crash but were never shipped: park
      // them for the emitter's reconnect (see deliver_parked) instead of
      // flushing them at nobody on the first loop iteration. They are
      // NOT offered to the traffic recorder: their samples died with the
      // old process.
      for (core::JobVerdict& verdict : service_.drain_verdicts()) {
        if (config_.on_verdict) config_.on_verdict(verdict);
        parked_verdicts_[verdict.job_id] = make_verdict_message(verdict);
      }
    }
  }

  std::uint64_t total_delivered = 0;
  const auto start = std::chrono::steady_clock::now();
  auto last_sweep = start;
  auto last_snapshot = start;
  std::vector<Envelope> batch;
  bool more = true;

  while (more && !stop_.load(std::memory_order_acquire)) {
    if (config_.external_stop != nullptr &&
        config_.external_stop->load(std::memory_order_relaxed)) {
      // Signal-driven shutdown (SIGTERM/SIGINT in the CLI): break into
      // the normal wind-down below — drain, close jobs, final snapshot
      // — instead of dying with the last snapshot stale.
      break;
    }
    batch.clear();
    more = sources_->poll(batch, config_.poll_timeout);
    if (!batch.empty()) {
      envelopes_.fetch_add(batch.size(), std::memory_order_relaxed);
      for (Envelope& envelope : batch) dispatch(envelope);
    }

    // Recognize everything the batch enqueued (deferred services; a
    // no-op for inline ones), then ship finished verdicts back.
    service_.process_pending(pool_);
    total_delivered += flush_verdicts();

    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= config_.sweep_interval) {
      const std::size_t evicted = service_.sweep_stale_jobs();
      sweeps_.fetch_add(1, std::memory_order_relaxed);
      if (evicted > 0) {
        evicted_.fetch_add(evicted, std::memory_order_relaxed);
        total_delivered += flush_verdicts();
      }
      last_sweep = now;
    }

    if (config_.retrain != nullptr) {
      // Closed loop: check the retrain triggers at the poll boundary
      // (the cycle itself runs on the controller's background thread —
      // recognition keeps flowing) and fan finished cycles out to every
      // connection as kRetrainReport frames.
      config_.retrain->maybe_trigger(now);
      publish_retrain_reports();
    }

    if (!config_.snapshot_path.empty()) {
      const bool interval_due =
          config_.snapshot_interval.count() > 0 &&
          now - last_snapshot >= config_.snapshot_interval;
      const bool verdicts_due =
          config_.snapshot_every_verdicts > 0 &&
          verdicts_delivered_.load(std::memory_order_relaxed) -
                  verdicts_at_last_snapshot_ >=
              config_.snapshot_every_verdicts;
      if (interval_due || verdicts_due) {
        write_snapshot();
        last_snapshot = now;
      }
    }

    if (config_.max_verdicts != 0 &&
        verdicts_delivered_.load(std::memory_order_relaxed) >=
            config_.max_verdicts) {
      break;
    }
  }

  if (config_.close_jobs_on_end) {
    // The source is gone (or we are stopping): every job this pipeline
    // opened still deserves a verdict — the unknown-application
    // safeguard for emitters that died mid-stream.
    std::vector<std::uint64_t> open_jobs;
    open_jobs.reserve(replies_.size());
    for (const auto& [job_id, route] : replies_) open_jobs.push_back(job_id);
    for (const std::uint64_t job_id : open_jobs) {
      if (service_.close_job(job_id)) {
        jobs_closed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    total_delivered += flush_verdicts();
  }
  if (config_.retrain != nullptr) {
    // Wind the loop down cleanly: wait out an in-flight cycle so the
    // final snapshot (below) carries its outcome, and ship the last
    // reports to whoever is still connected.
    config_.retrain->join();
    publish_retrain_reports();
  }
  if (!config_.snapshot_path.empty() &&
      (config_.snapshot_interval.count() > 0 ||
       config_.snapshot_every_verdicts > 0)) {
    // Final snapshot on a clean exit: the successor process restarts
    // with continuous lifetime counters (and whatever streams remain).
    write_snapshot();
  }
  return total_delivered;
}

IngestPipelineStats IngestPipeline::stats() const {
  IngestPipelineStats stats;
  stats.envelopes = envelopes_.load(std::memory_order_relaxed);
  stats.samples = samples_.load(std::memory_order_relaxed);
  stats.jobs_opened = jobs_opened_.load(std::memory_order_relaxed);
  stats.open_rejected = open_rejected_.load(std::memory_order_relaxed);
  stats.jobs_closed = jobs_closed_.load(std::memory_order_relaxed);
  stats.verdicts_delivered =
      verdicts_delivered_.load(std::memory_order_relaxed);
  stats.unexpected_messages =
      unexpected_messages_.load(std::memory_order_relaxed);
  stats.sweeps = sweeps_.load(std::memory_order_relaxed);
  stats.evicted = evicted_.load(std::memory_order_relaxed);
  stats.snapshots_written = snapshots_written_.load(std::memory_order_relaxed);
  stats.snapshot_failures = snapshot_failures_.load(std::memory_order_relaxed);
  stats.snapshot_bases = snapshot_bases_.load(std::memory_order_relaxed);
  stats.snapshot_deltas = snapshot_deltas_.load(std::memory_order_relaxed);
  stats.restore_deltas_discarded =
      restore_deltas_discarded_.load(std::memory_order_relaxed);
  stats.followers_accepted =
      followers_accepted_.load(std::memory_order_relaxed);
  stats.follow_rejected = follow_rejected_.load(std::memory_order_relaxed);
  stats.captures_replicated =
      captures_replicated_.load(std::memory_order_relaxed);
  stats.captures_oversize = captures_oversize_.load(std::memory_order_relaxed);
  stats.snap_acks_ok = snap_acks_ok_.load(std::memory_order_relaxed);
  stats.snap_acks_failed = snap_acks_failed_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    stats.snapshot_last_error = snapshot_last_error_;
  }
  stats.jobs_restored = jobs_restored_.load(std::memory_order_relaxed);
  stats.jobs_rebound = jobs_rebound_.load(std::memory_order_relaxed);
  stats.dictionary_swaps = dictionary_swaps_.load(std::memory_order_relaxed);
  stats.swaps_rejected = swaps_rejected_.load(std::memory_order_relaxed);
  stats.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  stats.retrain_reports = retrain_reports_.load(std::memory_order_relaxed);
  stats.subscribe_requests =
      subscribe_requests_.load(std::memory_order_relaxed);
  stats.verdict_events = verdict_events_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace efd::ingest
