#pragma once
/// \file recognition_service.hpp
/// \brief Multi-job streaming recognition service with bounded per-job
/// queues, back-pressure, and stale-stream eviction.
///
/// A production cluster runs many jobs at once; each node's monitoring
/// daemon pushes samples as they are taken. RecognitionService owns the
/// trained concurrent dictionary (ShardedDictionary) and multiplexes one
/// OnlineRecognizer stream per job id, so pushes for different jobs
/// proceed in parallel and a verdict fires the moment a job's last
/// fingerprint window closes (t = 120 s in the paper's configuration).
///
/// Production ingestion concerns (the scaling items PR 1 left open):
///  - Every job stream buffers samples in a *bounded* queue. When the
///    queue is full a BackpressurePolicy decides: block the producer
///    until the drainer catches up, drop the oldest queued sample, or
///    reject the new one. All three outcomes are observable in
///    RecognitionServiceStats.
///  - In the default (inline) mode the pushing thread drains the queue
///    itself, so verdicts still fire inside push() — the simulator path.
///    With config.deferred = true, push() only enqueues (cheap enough
///    for a network reader thread) and process_pending() — typically
///    called by the ingest pipeline, fanned across a thread pool —
///    consumes the queues and fires verdicts. That is the one drain
///    path: verdicts queue under one lock in completion order.
///  - Jobs that never complete (crashed daemons, killed executions)
///    stop consuming memory: sweep_stale_jobs() force-closes every
///    stream idle past the configured TTL, producing the paper's
///    unknown-application safeguard verdict.
///
/// Thread-safety / locking discipline:
///  - jobs map:      std::shared_mutex; push/has_job/stats/process/sweep
///    take it shared, open_job and the drain-time reap take it exclusive.
///  - per-job state: its own std::mutex guarding the sample queue and the
///    drain token (`draining`), only ever taken while holding no other
///    lock. The recognizer itself is owned by whichever thread holds the
///    drain token and is fed *outside* the stream mutex, so producers
///    keep enqueueing while a batch is recognized. close/evict wait on
///    `drained` for the token holder to finish before computing their
///    verdict under the mutex.
///  - verdict queue: its own std::mutex, leaf lock (acquired under a
///    stream mutex when a verdict fires, never the other way round).
///    Verdicts are queued BEFORE a stream's done flag is published, so
///    the drain-time reap can treat done==true as "verdict queued".
///  - dictionary:    the active dictionary lives behind a versioned
///    DictionaryHandle (RCU snapshot). Each stream pins the epoch that
///    was active when it opened and recognizes against it for its whole
///    life; swap_dictionary() atomically publishes a retrained successor
///    for new streams without touching in-flight ones. learn() inserts
///    into the active epoch (ShardedDictionary is internally
///    synchronized) and may run concurrently with every recognition path.
///
/// Durability: snapshot() serializes the whole service — active
/// dictionary epoch, every open stream's accumulators and queue, pending
/// verdicts, lifetime counters — into the EFD-SNAP-V1 format, and
/// restore() rebuilds a fresh service from it, so a serve restart does
/// not lose in-flight jobs (see core/online/service_snapshot.hpp).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/dictionary_handle.hpp"
#include "core/online_recognizer.hpp"
#include "core/online/service_snapshot.hpp"
#include "core/sharded_dictionary.hpp"

namespace efd::util {
class ThreadPool;
}

namespace efd::core {

/// A finished job's recognition outcome. The latency stamps are
/// steady_clock nanoseconds (now_ns() epoch): `enqueue_ns` is when the
/// sample that completed the job was admitted, `verdict_ns` when the
/// verdict was computed — their difference is the end-to-end
/// enqueue → verdict latency the observability plane histograms. A
/// close_job() verdict is stamped from the close request, an evicted one
/// from the sweep's decision; both are 0 only for snapshot-restored
/// verdicts. `source` is the ingest source tag the job arrived on.
struct JobVerdict {
  std::uint64_t job_id = 0;
  RecognitionResult result;
  std::uint32_t source = 0;
  std::int64_t enqueue_ns = 0;
  std::int64_t verdict_ns = 0;
};

/// What happens to a push when a job's sample queue is full.
enum class BackpressurePolicy : std::uint8_t {
  /// Lossless: if another thread is draining, wait for space (true
  /// back-pressure); with no active drainer, the pusher drains inline
  /// itself — so kBlock can never deadlock a lone producer, even in
  /// deferred mode.
  kBlock,
  kDropOldest, ///< evict the oldest queued sample (bounded, freshest-wins)
  kReject,     ///< refuse the new sample (bounded, caller sees false)
};

const char* backpressure_policy_name(BackpressurePolicy policy);

/// Inverse of backpressure_policy_name ("block" / "drop-oldest" /
/// "reject"); nullopt for anything else. Shared by every flag parser so
/// a typo is rejected instead of silently running kBlock.
std::optional<BackpressurePolicy> parse_backpressure_policy(
    std::string_view name);

/// Service tuning knobs; the defaults reproduce PR 1's inline behavior.
struct RecognitionServiceConfig {
  /// Maximum samples buffered per job before the policy applies.
  std::size_t job_queue_capacity = 4096;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Idle time after which sweep_stale_jobs() force-closes a stream.
  std::chrono::steady_clock::duration stale_ttl = std::chrono::minutes(10);
  /// When true, push() only enqueues; process_pending() consumes. When
  /// false, the pushing thread drains inline (verdicts fire in push()).
  bool deferred = false;
  /// Must be 0 (the constructor throws); goes when perfbench/ is next edited.
  std::size_t worker_count = 0;
};

/// Ingress counters of one source tag — the service-side view of a
/// multi-source ingest topology (tags are the mux's SourceIds; 0 is the
/// untagged/legacy default). Not persisted by snapshots: tags are a
/// property of the serving process's transport wiring, so they restart
/// at zero while the mux's own per-source cursors stay continuous.
struct SourceIngressStats {
  std::uint32_t source = 0;
  std::uint64_t jobs_opened = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t samples_pushed = 0;
};

/// Aggregate service counters (monitoring endpoint material).
struct RecognitionServiceStats {
  std::size_t active_jobs = 0;      ///< streams currently open
  std::size_t pending_verdicts = 0; ///< completed but not yet drained
  std::size_t queued_samples = 0;   ///< buffered, not yet recognized
  std::uint64_t jobs_opened = 0;    ///< lifetime total
  std::uint64_t jobs_completed = 0; ///< lifetime total (incl. force-closed)
  std::uint64_t jobs_evicted = 0;   ///< force-closed by the stale sweep
  std::uint64_t samples_pushed = 0; ///< accepted and recognized
  std::uint64_t samples_dropped = 0;///< pushes for unknown job ids
  std::uint64_t samples_late = 0;   ///< pushes after a job's verdict fired
  std::uint64_t samples_overflowed = 0; ///< evicted by kDropOldest
  std::uint64_t samples_rejected = 0;   ///< refused by kReject
  std::uint64_t pushes_blocked = 0;     ///< kBlock waits (back-pressure)
  std::uint64_t dictionary_epoch = 0;   ///< active dictionary version
  std::uint64_t dictionary_swaps = 0;   ///< swaps that published a new epoch
  /// swap_dictionary calls rejected because the candidate was
  /// byte-identical to the active dictionary (already-active): a no-op
  /// swap must not burn an epoch — it would reset nothing yet make every
  /// in-flight stream look stale and defeat retrain double-promotion
  /// protection.
  std::uint64_t dictionary_swaps_noop = 0;
  /// Open streams still pinned to a superseded dictionary epoch (they
  /// finish against it; drops to 0 once pre-swap streams drain).
  std::size_t jobs_on_stale_epoch = 0;
  /// Flat probe index (dictionary_index.hpp) of the active epoch: compile
  /// wall-clock cost and resident footprint. Both 0 when no index was
  /// compiled (EFD_FLAT_INDEX=off or unusable content); the build cost is
  /// reported even after online learning staled the index, so the
  /// swap-time cost stays visible on the scrape.
  double index_build_seconds = 0.0;
  std::uint64_t index_bytes = 0;
  /// Per-source ingress, ordered by tag. Populated only once a tagged
  /// open_job arrived (a single untagged source keeps this empty, so the
  /// legacy scrape is unchanged).
  std::vector<SourceIngressStats> by_source;
};                                  ///< (healthy: jobs outlive their window)

/// One ingest source's resume point inside EFD-SNAP-V1 (opaque to the
/// service, like replay_cursor): keyed by the mux registration name so
/// it survives restarts where transport ids could be re-assigned.
struct SourceCursor {
  std::string name;
  std::uint64_t cursor = 0;

  bool operator==(const SourceCursor&) const = default;
};

/// What RecognitionService::restore() rebuilt from a snapshot.
struct ServiceRestoreInfo {
  std::uint64_t replay_cursor = 0;    ///< caller-defined resume point
  std::uint64_t dictionary_epoch = 0; ///< restored active epoch version
  std::size_t jobs_restored = 0;      ///< open streams rebuilt
  std::size_t verdicts_restored = 0;  ///< pending (undrained) verdicts
  /// Streams restored OPEN but with fresh windows: they were pinned to
  /// an epoch whose accumulator layout (metrics/intervals) differs from
  /// the snapshot's active dictionary, so their sums could not transfer.
  std::size_t streams_reset = 0;
  /// Opaque Retrain-section bytes carried by the snapshot (empty when the
  /// snapshot had none). The retrain subsystem decodes these; the service
  /// only transports them.
  std::vector<std::uint8_t> retrain_state;
  /// Per-source resume points (empty for legacy single-cursor
  /// snapshots). Like replay_cursor, opaque: the ingest layer seeds its
  /// mux counters from them.
  std::vector<SourceCursor> source_cursors;
};

/// Concurrent multi-job streaming recognizer. Non-copyable, non-movable
/// (open streams hold pointers into the owned dictionary).
class RecognitionService {
 public:
  /// Takes ownership of a trained concurrent dictionary.
  explicit RecognitionService(ShardedDictionary dictionary,
                              RecognitionServiceConfig config = {});

  RecognitionService(const RecognitionService&) = delete;
  RecognitionService& operator=(const RecognitionService&) = delete;

  /// The ACTIVE dictionary. Borrowed reference: valid until the next
  /// swap_dictionary()/restore() publishes a successor epoch — callers
  /// that must survive swaps should pin via dictionary_handle().acquire().
  const ShardedDictionary& dictionary() const;
  const DictionaryHandle& dictionary_handle() const noexcept { return handle_; }
  const RecognitionServiceConfig& config() const noexcept { return config_; }

  /// Online learning passthrough: thread-safe against all recognition
  /// paths ("learning new applications is as simple as adding new keys").
  /// Inserts into the ACTIVE epoch; streams pinned to older epochs do
  /// not see the new key.
  void learn(const FingerprintKey& key, const std::string& label);

  /// What swap_dictionary did with a candidate.
  struct SwapOutcome {
    std::uint64_t epoch = 0;    ///< active epoch after the call
    bool already_active = false;///< candidate identical to the active dict

    /// Legacy call sites compare the outcome against an epoch number.
    bool operator==(std::uint64_t version) const { return epoch == version; }
  };

  /// Atomically publishes a retrained dictionary as the new active
  /// epoch, mid-traffic. In-flight streams finish against the epoch they
  /// opened under; streams opened after this call recognize against
  /// \p next. A candidate whose serialized form is byte-identical to the
  /// active dictionary (config AND content) is rejected as
  /// already-active: the epoch does not advance, the outcome reports the
  /// current version, and the attempt is counted in
  /// ServiceStats::dictionary_swaps_noop. The identity check is advisory
  /// under races (a concurrent learn() or competing swap between the
  /// comparison and the publication can let a now-identical candidate
  /// through); every committed swap is still a fully consistent epoch.
  /// Thread-safe against every other method (including concurrent swaps,
  /// which serialize).
  SwapOutcome swap_dictionary(ShardedDictionary next);

  /// Serializes the complete service state (active dictionary epoch,
  /// open streams, pending verdicts, lifetime counters) as EFD-SNAP-V1.
  /// Safe against live traffic: each stream is captured at a consistent
  /// point (waiting out an active drainer), and a job completing
  /// mid-snapshot is captured at-least-once (as a stream, a pending
  /// verdict, or both) — never lost. \p replay_cursor is an opaque
  /// caller-defined resume point stored verbatim (e.g. "messages
  /// applied"); restore() hands it back. \p retrain_state, when
  /// non-empty, travels as the optional Retrain section (opaque to the
  /// service) and comes back in ServiceRestoreInfo::retrain_state.
  /// \p source_cursors, when non-empty, extends the Meta section with
  /// one named resume point per ingest source (multi-source pipelines);
  /// decoders accept both the legacy single-cursor and extended bodies.
  void snapshot(std::ostream& out, std::uint64_t replay_cursor = 0,
                std::span<const std::uint8_t> retrain_state = {},
                std::span<const SourceCursor> source_cursors = {}) const;

  /// Rebuilds service state from an EFD-SNAP-V1 stream produced by
  /// snapshot(). Only valid on a service with no open jobs and no
  /// pending verdicts (a fresh restart); throws SnapshotError (see
  /// service_snapshot.hpp) on format/CRC violations — all-or-nothing:
  /// a failed restore leaves the service untouched. The restored
  /// dictionary replaces the constructor's (keeping its shard count);
  /// restored streams' TTL clocks restart at "now".
  ServiceRestoreInfo restore(std::istream& in);

  /// Writes one EFD-SNAP-V2 capture — a BASE (complete snapshot,
  /// Dictionary included) or a DELTA (only streams whose serialized
  /// state changed since \p chain's last capture, plus closed jobs and
  /// fresh Meta/Verdicts/Stats[/Retrain]). A base is written when the
  /// chain is empty, when the active dictionary epoch or swap count
  /// differs from the chain's base, or when \p force_base is set
  /// (callers cap chain length with it); otherwise a delta chained to
  /// the previous capture by id. \p chain is caller-owned bookkeeping,
  /// updated on success. Same live-traffic safety as snapshot().
  SnapshotCaptureInfo snapshot_capture(
      std::ostream& out, SnapshotChainState& chain, bool force_base = false,
      std::uint64_t replay_cursor = 0,
      std::span<const std::uint8_t> retrain_state = {},
      std::span<const SourceCursor> source_cursors = {}) const;

  /// Rebuilds service state from an EFD-SNAP-V2 capture chain: the
  /// first stream must be a base, each subsequent one a delta whose
  /// parent_id equals the previous capture_id. Replay is all-or-nothing
  /// across the WHOLE chain — any broken link, CRC mismatch, or format
  /// violation throws SnapshotError with the service untouched (the
  /// caller decides whether to retry with a shorter chain). Latest
  /// capture wins for Meta/Verdicts/Stats/Retrain; stream sections
  /// add/replace by job id and ClosedJobs removes. Same preconditions
  /// as restore().
  ServiceRestoreInfo restore_chain(std::span<std::istream* const> parts);

  /// Declares an ingest source tag up front so its (possibly all-zero)
  /// counters appear in stats().by_source immediately. A multi-source
  /// pipeline registers every source at start; without this, a
  /// deployment whose traffic happened to arrive only on tag 0 would be
  /// indistinguishable from the legacy single-source mode and its
  /// per-source rows would be suppressed.
  void register_source_tag(std::uint32_t source_tag) {
    ingress_for(source_tag);
  }

  /// Opens a stream for a job. Returns false (and changes nothing) if the
  /// job id is already present (open, or completed but not yet drained —
  /// ids become reusable after drain_verdicts()). \p source_tag labels
  /// the ingest source the job arrived on (the mux's SourceId; 0 =
  /// untagged): the stream's opens/pushes/completions accumulate into
  /// RecognitionServiceStats::by_source under that tag.
  bool open_job(std::uint64_t job_id, std::uint32_t node_count,
                std::uint32_t source_tag = 0);

  /// True while the job's stream is open (completed streams awaiting
  /// reaping do not count).
  bool has_job(std::uint64_t job_id) const;

  /// Feeds one monitoring sample. Returns false if no such job is open
  /// (counted as dropped), if the verdict already fired (late), or if
  /// the queue was full under kReject (rejected). In inline mode the
  /// sample is recognized here and the verdict may fire before this
  /// returns; in deferred mode it waits for process_pending().
  bool push(std::uint64_t job_id, std::uint32_t node_id,
            std::string_view metric_name, int t, double value);

  /// One sample of a push_batch call (views borrow the caller's memory
  /// for the duration of the call only).
  struct SamplePush {
    std::uint32_t node_id = 0;
    int t = 0;
    double value = 0.0;
    std::string_view metric;
  };

  /// Batched push for samples sharing one job (the ingest pipeline's
  /// hot path): resolves the stream and takes its lock once for the
  /// whole batch instead of per sample. Per-sample semantics (policy,
  /// counters, verdict firing) are identical to push(). Returns the
  /// number of samples accepted.
  std::size_t push_batch(std::uint64_t job_id,
                         std::span<const SamplePush> samples);

  /// Drains every job's queued samples (deferred mode's consumer); fans
  /// the jobs out across \p pool when non-null. Safe to call from any
  /// thread and in any mode. Must be called from outside the pool's own
  /// workers. Returns the number of samples recognized.
  std::size_t process_pending(util::ThreadPool* pool = nullptr);

  /// Force-closes a job, producing a verdict from whatever windows have
  /// closed (unrecognized if the stream never became ready). Queued
  /// samples are recognized first — they were accepted. Returns false
  /// if no such job is open.
  bool close_job(std::uint64_t job_id);

  /// Force-closes every stream idle (no accepted push) for at least
  /// \p ttl, bounding service memory when jobs die without closing.
  /// Evicted jobs yield a verdict like close_job(). Returns the number
  /// of evicted streams.
  std::size_t sweep_stale_jobs(std::chrono::steady_clock::duration ttl);

  /// sweep_stale_jobs with the configured TTL.
  std::size_t sweep_stale_jobs() { return sweep_stale_jobs(config_.stale_ttl); }

  /// Moves out all queued verdicts (order: completion order) and reaps
  /// completed streams from the jobs map (their ids become reusable).
  std::vector<JobVerdict> drain_verdicts();

  RecognitionServiceStats stats() const;

  /// Ids of every currently open job, ascending (observability /index
  /// material; takes the jobs map shared).
  std::vector<std::uint64_t> open_job_ids() const;

 private:
  struct SourceIngress;

  /// One queued monitoring sample. POD: the metric travels as the
  /// recognizer's slot index (resolved once at enqueue, since the push
  /// caller's string_view does not outlive the call), so queue churn
  /// copies plain bytes instead of constructing strings. kNoMetricSlot
  /// marks metrics the dictionary does not fingerprint — still queued,
  /// because the legacy path counted them as fed. `enqueue_ns` is the
  /// admission stamp (one now_ns() per accepted batch, shared by its
  /// samples) that the verdict latency histogram measures from; 0 for
  /// snapshot-restored samples.
  struct Sample {
    std::uint32_t node_id = 0;
    int t = 0;
    double value = 0.0;
    std::uint32_t metric_slot = kNoMetricSlot;
    std::int64_t enqueue_ns = 0;
  };

  struct JobStream {
    JobStream(std::shared_ptr<DictionaryHandle::Epoch> epoch,
              std::uint64_t job_id, std::uint32_t node_count)
        : job_id(job_id),
          epoch(std::move(epoch)),
          recognizer(this->epoch->dictionary, node_count) {}

    const std::uint64_t job_id;
    /// The dictionary epoch pinned at open: the recognizer reads this
    /// epoch's dictionary for the stream's whole life, across any number
    /// of swaps. Immutable after construction (safe to read lock-free).
    const std::shared_ptr<DictionaryHandle::Epoch> epoch;
    std::mutex mutex;              ///< guards queue + draining (+ recognizer
                                   ///< when draining == false)
    std::condition_variable space; ///< kBlock producers wait here
    std::condition_variable drained; ///< close/evict wait for the drainer
    std::vector<Sample> queue;
    /// Drain-side twin of queue: the drainer swaps the full queue out
    /// under the mutex and consumes it unlocked. Both vectors reach the
    /// queue-capacity high-water mark and then recycle their storage —
    /// the deque this replaces allocated a block every ~hundred samples
    /// forever. Owned by the drain-token holder.
    std::vector<Sample> drain_batch;
    bool draining = false;         ///< drain token: holder owns recognizer
    OnlineRecognizer recognizer;
    /// The source tag's ingress counters (shared with the service's
    /// registry; never null once open_job assigns it). The pointer is
    /// immutable after open, so hot-path increments are lock-free.
    SourceIngress* ingress = nullptr;
    /// Set (under mutex) when the verdict is queued; readable without
    /// the mutex. Done streams linger until drain_verdicts reaps them,
    /// so post-verdict pushes classify as "late" rather than "dropped".
    std::atomic<bool> done{false};
    std::atomic<std::size_t> queued{0}; ///< == queue.size(), for stats
    std::atomic<std::int64_t> last_activity_ns{0}; ///< steady_clock epoch
  };

  /// Lock-free-increment ingress counters of one source tag (by_source
  /// material). Entries live for the service's lifetime.
  struct SourceIngress {
    std::uint32_t source = 0;
    std::atomic<std::uint64_t> jobs_opened{0};
    std::atomic<std::uint64_t> jobs_completed{0};
    std::atomic<std::uint64_t> samples_pushed{0};
  };

  /// Get-or-create the counters of \p source_tag (any thread).
  SourceIngress* ingress_for(std::uint32_t source_tag);

  std::shared_ptr<JobStream> find_stream(std::uint64_t job_id) const;
  /// Applies the back-pressure policy and enqueues one sample; \p lock
  /// holds stream->mutex (may be dropped and re-taken by a kBlock
  /// self-drain). Returns false when the sample was not enqueued.
  bool enqueue_locked(JobStream& stream, std::unique_lock<std::mutex>& lock,
                      const SamplePush& sample, std::int64_t enqueue_ns);
  /// Drains the stream's queue with the drain token held; \p lock must
  /// hold stream->mutex on entry and holds it again on return. Returns
  /// samples recognized.
  std::size_t drain_stream(JobStream& stream, std::unique_lock<std::mutex>& lock);
  /// Computes and queues a force-close verdict; caller holds the mutex
  /// and has waited out any drainer. Flushes queued samples first.
  /// \p decided_ns (the close request or the sweep's decision) is the
  /// verdict's latency origin.
  void finish_stream(JobStream& stream, std::int64_t decided_ns);
  /// \p enqueue_ns is the admission stamp of the sample that completed
  /// the job (0 = unknown); the verdict's verdict_ns is stamped here.
  void queue_verdict(std::uint64_t job_id, RecognitionResult result,
                     std::uint32_t source, std::int64_t enqueue_ns);
  static std::int64_t now_ns();

  /// Undrained verdicts in the queue.
  std::size_t pending_verdict_count() const;

  /// Snapshot/restore internals (service_snapshot.cpp): the section
  /// writer shared by the V1 full snapshot and the V2 base/delta
  /// capture encoders, and the staged all-or-nothing decoder shared by
  /// restore() and restore_chain().
  struct RestoreStaging;
  std::size_t write_snapshot_sections(
      std::ostream& out,
      const std::shared_ptr<DictionaryHandle::Epoch>& dict_epoch,
      std::uint64_t dict_swap_count, SnapshotChainState* chain, bool delta,
      SnapshotCaptureInfo* info, std::uint64_t replay_cursor,
      std::span<const std::uint8_t> retrain_state,
      std::span<const SourceCursor> source_cursors) const;
  void decode_snapshot_sections(std::istream& in, RestoreStaging& staging,
                                bool delta) const;
  ServiceRestoreInfo commit_staging(RestoreStaging&& staging);
  void require_fresh_for_restore() const;

  DictionaryHandle handle_;
  RecognitionServiceConfig config_;

  mutable std::shared_mutex jobs_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<JobStream>> jobs_;

  /// Verdicts in completion order: push order under this leaf lock.
  mutable std::mutex verdicts_mutex_;
  std::vector<JobVerdict> verdicts_;

  /// Source-tag → ingress counters. Touched once per open_job (and by
  /// stats()); the hot push path goes through JobStream::ingress.
  mutable std::mutex sources_mutex_;
  std::map<std::uint32_t, std::unique_ptr<SourceIngress>> source_ingress_;

  std::atomic<std::uint64_t> jobs_opened_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_evicted_{0};
  std::atomic<std::uint64_t> samples_pushed_{0};
  std::atomic<std::uint64_t> samples_dropped_{0};
  std::atomic<std::uint64_t> samples_late_{0};
  std::atomic<std::uint64_t> samples_overflowed_{0};
  std::atomic<std::uint64_t> samples_rejected_{0};
  std::atomic<std::uint64_t> pushes_blocked_{0};
  std::atomic<std::uint64_t> swaps_noop_{0};
};

}  // namespace efd::core
