#pragma once
/// \file workload.hpp
/// \brief The benchmark's workloads and the seeded inputs each one runs:
/// dataset, train/serve split, trained dictionary file, reference
/// verdicts, and the open-loop traffic plan with its frames pre-encoded.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fingerprint.hpp"
#include "ingest/wire_format.hpp"
#include "schedule.hpp"
#include "telemetry/dataset.hpp"

namespace perfbench {

enum class Transport : std::uint8_t { kTcp = 0, kUdp = 1, kShm = 2 };

/// What every workload shares: the paper's configuration (headline
/// metric, 60:120 window, depth-2 dictionary, Table 2 job mix at 30
/// repetitions) and one open-loop load. Each node samples at 1 Hz, as the
/// LDMS collector does (ldms/collector.hpp), and a job's samples are
/// framed as `efd_cli replay` frames them: TransportFeed batches of 256
/// samples, the replay's default `--batch`. Time runs 1000x compressed (one
/// monitoring second per millisecond) and jobs arrive at 155/s. Neither
/// figure has a source: the paper gives no job arrival rate. They are
/// chosen so a 40 s run serves ~6,000 jobs (nine segments of ~600
/// verdicts for a steady p50) at ~130k samples/s, far below what `serve`
/// can take, so the latency measured is that of an idle path, not of a
/// queue.
inline constexpr std::size_t kRepetitions = 30;
inline constexpr int kDepth = 2;
inline constexpr double kJobsPerSecond = 155.0;
inline constexpr std::int64_t kTickNs = 1'000'000;
inline constexpr std::uint32_t kBatchSamples = 256;
/// serve start-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetupSpawns = 21;

/// How the workloads differ.
struct WorkloadSpec {
  std::string name;
  std::size_t workers = 0;  ///< serve --workers
  std::vector<Transport> transports{Transport::kTcp};  ///< jobs dealt round robin
  double churn_share = 0.0;  ///< jobs closed before their window completes
  /// Writes and reads beside the probes: snapshots every 250 verdicts,
  /// a dry-run retrain every 2 s, one GET /metrics per second.
  bool side_work = false;
};

bool uses(const WorkloadSpec& spec, Transport transport);

const WorkloadSpec* find_workload(std::string_view name);
const std::vector<WorkloadSpec>& all_workloads();

struct Inputs {
  efd::telemetry::Dataset dataset;
  std::vector<std::size_t> train;  ///< dataset indices the dictionary learns
  std::vector<std::size_t> serve;  ///< dataset indices replayed as jobs
  efd::core::FingerprintConfig fingerprint;
  std::int32_t ready_tick = 0;     ///< max interval end - 1
  std::string dict_path;
  std::size_t dict_keys = 0;
  std::vector<efd::ingest::WireVerdict> reference;  ///< per serve position
  /// What a job closed before its last window completes must get.
  efd::ingest::WireVerdict unready_reference;
  double generate_s = 0.0;
  double train_s = 0.0;
};

/// Generates the seeded dataset, splits it per label into disjoint train
/// and serve sets, trains and writes the dictionary under \p run_dir, and
/// computes every serve record's reference verdict with Dictionary +
/// Matcher loaded from that same file.
Inputs make_inputs(std::uint64_t seed, const std::string& run_dir);

/// Ticks every (node, metric) series of \p record holds (the shortest).
std::int32_t record_ticks(const efd::telemetry::ExecutionRecord& record);

/// Samples [first, first + count) of \p record's stream as a kSampleBatch
/// message. The stream is ordered as `efd_cli replay` publishes it: every
/// (node, metric) for second 0, then for second 1, and so on.
efd::ingest::Message batch_message(const efd::telemetry::Dataset& dataset,
                                   const efd::telemetry::ExecutionRecord& record,
                                   std::uint64_t job_id, std::size_t first,
                                   std::size_t count);

/// One serve record's frames built once with job id 0: the open, one
/// kSampleBatch per kBatchSamples samples, and the close, both encoded
/// (for TCP writes) and as messages (for the UDP and SHM clients, which
/// encode themselves). Each send copies a frame and writes the job's id
/// into the copy.
struct FrameTemplates {
  std::vector<efd::ingest::Message> messages;  ///< frame f as a message
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> starts;   ///< frame f spans [starts[f], starts[f + 1])
  std::vector<std::uint32_t> samples;  ///< samples in frame f
  std::uint32_t nodes = 0;
  JobShape shape;

  /// Index of the frame a schedule Frame sends.
  std::size_t index(const Frame& frame) const noexcept;
};

/// Appends frame \p index of \p templates to \p out, carrying \p job_id.
void append_frame(const FrameTemplates& templates, std::size_t index,
                  std::uint64_t job_id, std::vector<std::uint8_t>& out);

/// The traffic one pass replays. Job j carries job id j + 1.
struct Plan {
  Schedule schedule;
  std::vector<std::uint32_t> job_serve_pos;  ///< serve position per job
  std::vector<FrameTemplates> templates;     ///< per serve position (used ones)

  const FrameTemplates& job_templates(std::size_t job) const {
    return templates[job_serve_pos[job]];
  }
};

Plan make_plan(const WorkloadSpec& spec, const Inputs& inputs,
               std::uint64_t seed, double seconds);

/// True when job \p job streams every window (not churned, long enough).
bool job_completes(const Plan& plan, std::size_t job);

/// The reference a job must match: the serve record's verdict when the
/// job streams its last window, the unready verdict otherwise.
const efd::ingest::WireVerdict& expected_verdict(const Inputs& inputs,
                                                 const Plan& plan, std::size_t job);

}  // namespace perfbench
