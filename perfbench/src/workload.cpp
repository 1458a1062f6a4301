#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>

#include "core/dictionary.hpp"
#include "core/matcher.hpp"
#include "core/sharded_dictionary.hpp"
#include "core/trainer.hpp"
#include "ingest/pipeline.hpp"
#include "sim/dataset_generator.hpp"
#include "telemetry/metric_registry.hpp"

namespace perfbench {

namespace {

using efd::ingest::Message;

std::vector<WorkloadSpec> build_workloads() {
  WorkloadSpec paced;
  paced.name = "paper-paced";

  // The default `serve` (--workers 0), as on paper-paced: with the worker
  // pool the verdicts wait for the next poll, and that wait lands in one
  // of two modes from run to run (p50 ~0.3 ms or ~1.7 ms over TCP alone),
  // which no run length makes steady.
  WorkloadSpec churn;
  churn.name = "churn-mixed";
  churn.transports = {Transport::kTcp, Transport::kUdp, Transport::kShm};
  churn.churn_share = 0.2;
  churn.side_work = true;
  return {paced, churn};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = build_workloads();
  return specs;
}

bool uses(const WorkloadSpec& spec, Transport transport) {
  return std::find(spec.transports.begin(), spec.transports.end(), transport) !=
         spec.transports.end();
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::int32_t record_ticks(const efd::telemetry::ExecutionRecord& record) {
  std::size_t ticks = SIZE_MAX;
  for (std::size_t node = 0; node < record.node_count(); ++node) {
    for (std::size_t slot = 0; slot < record.metric_count(); ++slot) {
      ticks = std::min(ticks, record.series(node, slot).size());
    }
  }
  return ticks == SIZE_MAX ? 0 : static_cast<std::int32_t>(ticks);
}

Inputs make_inputs(std::uint64_t seed, const std::string& run_dir) {
  Inputs inputs;
  auto start = std::chrono::steady_clock::now();
  efd::sim::GeneratorConfig generator;
  generator.seed = seed;
  generator.small_repetitions = kRepetitions;
  generator.include_large_input = true;
  generator.metrics = {std::string(efd::telemetry::kHeadlineMetric)};
  inputs.dataset = efd::sim::generate_paper_dataset(generator);
  inputs.generate_s = seconds_since(start);

  // Disjoint seeded split, per label so every label is both learned and
  // served: a third of each label's executions are served.
  std::map<std::string, std::vector<std::size_t>> by_label;
  for (std::size_t i = 0; i < inputs.dataset.size(); ++i) {
    by_label[inputs.dataset.record(i).label().full()].push_back(i);
  }
  SeededRng split_rng(seed ^ 0x5eedu);
  for (auto& [label, indices] : by_label) {
    const auto order = seeded_permutation(indices.size(), split_rng.next());
    const std::size_t served = indices.size() / 3;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      (k < served ? inputs.serve : inputs.train).push_back(indices[order[k]]);
    }
  }
  std::sort(inputs.train.begin(), inputs.train.end());
  std::sort(inputs.serve.begin(), inputs.serve.end());

  inputs.fingerprint.metrics = inputs.dataset.metric_names();
  inputs.fingerprint.intervals = {efd::telemetry::kPaperInterval};
  inputs.fingerprint.rounding_depth = kDepth;
  inputs.ready_tick = efd::telemetry::kPaperInterval.end_seconds - 1;

  start = std::chrono::steady_clock::now();
  const efd::core::ShardedDictionary trained =
      efd::core::train_dictionary_sharded(inputs.dataset, inputs.fingerprint,
                                          inputs.train);
  inputs.dict_path = run_dir + "/dictionary.efd";
  trained.save_file(inputs.dict_path);
  inputs.train_s = seconds_since(start);

  // The paper-faithful reference reads the same file the server loads.
  const efd::core::Dictionary reference =
      efd::core::Dictionary::load_file(inputs.dict_path);
  inputs.dict_keys = reference.size();
  const efd::core::Matcher matcher(reference);
  inputs.reference.reserve(inputs.serve.size());
  for (const std::size_t index : inputs.serve) {
    efd::core::JobVerdict verdict;
    verdict.result = matcher.recognize(inputs.dataset.record(index), inputs.dataset);
    inputs.reference.push_back(efd::ingest::make_verdict_message(verdict).verdict);
  }
  inputs.unready_reference =
      efd::ingest::make_verdict_message(efd::core::JobVerdict{}).verdict;
  return inputs;
}

Message batch_message(const efd::telemetry::Dataset& dataset,
                      const efd::telemetry::ExecutionRecord& record,
                      std::uint64_t job_id, std::size_t first, std::size_t count) {
  Message message;
  message.type = efd::ingest::MessageType::kSampleBatch;
  message.job_id = job_id;
  const auto& metrics = dataset.metric_names();
  const std::size_t per_tick = record.node_count() * metrics.size();
  for (std::size_t k = first; k < first + count; ++k) {
    const auto t = static_cast<std::int32_t>(k / per_tick);
    const auto node = static_cast<std::uint32_t>(k % per_tick / metrics.size());
    const std::size_t slot = k % metrics.size();
    message.samples.push_back(
        {node, t, record.series(node, slot)[static_cast<std::size_t>(t)], metrics[slot]});
  }
  return message;
}

std::size_t FrameTemplates::index(const Frame& frame) const noexcept {
  return frame.number == kCloseFrame ? starts.size() - 2 : frame.number;
}

void append_frame(const FrameTemplates& templates, std::size_t index,
                  std::uint64_t job_id, std::vector<std::uint8_t>& out) {
  // Every frame here is u32 payload_len | u8 version | u8 type | u64 job_id …
  constexpr std::size_t kJobIdOffset = 6;
  const std::size_t base = out.size();
  out.insert(out.end(), templates.bytes.begin() + templates.starts[index],
             templates.bytes.begin() + templates.starts[index + 1]);
  for (std::size_t b = 0; b < 8; ++b) {
    out[base + kJobIdOffset + b] = static_cast<std::uint8_t>(job_id >> (8 * b));
  }
}

namespace {

FrameTemplates make_templates(const Inputs& inputs, std::uint32_t serve_pos) {
  const auto& record = inputs.dataset.record(inputs.serve[serve_pos]);
  FrameTemplates templates;
  templates.nodes = static_cast<std::uint32_t>(record.node_count());
  templates.shape.samples_per_tick =
      static_cast<std::uint32_t>(record.node_count() * inputs.dataset.metric_names().size());
  templates.shape.ticks = record_ticks(record);
  const auto append = [&templates](Message message) {
    templates.starts.push_back(static_cast<std::uint32_t>(templates.bytes.size()));
    templates.samples.push_back(static_cast<std::uint32_t>(message.samples.size()));
    efd::ingest::encode_frame(message, templates.bytes);
    templates.messages.push_back(std::move(message));
  };
  append(efd::ingest::make_open_job(0, templates.nodes));
  const std::size_t total =
      static_cast<std::size_t>(templates.shape.ticks) * templates.shape.samples_per_tick;
  for (std::size_t first = 0; first < total; first += kBatchSamples) {
    append(batch_message(inputs.dataset, record, 0, first,
                         std::min<std::size_t>(kBatchSamples, total - first)));
  }
  append(efd::ingest::make_close_job(0));
  templates.starts.push_back(static_cast<std::uint32_t>(templates.bytes.size()));
  return templates;
}

}  // namespace

Plan make_plan(const WorkloadSpec& spec, const Inputs& inputs,
               std::uint64_t seed, double seconds) {
  Plan plan;
  std::int32_t longest = 0;
  for (const std::size_t index : inputs.serve) {
    longest = std::max(longest, record_ticks(inputs.dataset.record(index)));
  }
  const double job_s = static_cast<double>(longest + 2) * static_cast<double>(kTickNs) / 1e9;
  const double span_s = std::max(1.0, seconds - job_s - 0.3);
  const auto job_count =
      static_cast<std::size_t>(std::llround(kJobsPerSecond * span_s));
  // Jobs cycle through a seeded order of the serve split, in its own
  // (Table 2) mix of 4-node and 32-node executions.
  const auto order = seeded_permutation(inputs.serve.size(), seed ^ 0x0bu);
  for (std::size_t j = 0; j < job_count; ++j) {
    plan.job_serve_pos.push_back(order[j % order.size()]);
  }

  plan.templates.resize(inputs.serve.size());
  std::vector<JobShape> shapes;
  shapes.reserve(job_count);
  for (const std::uint32_t pos : plan.job_serve_pos) {
    FrameTemplates& templates = plan.templates[pos];
    if (templates.starts.empty()) templates = make_templates(inputs, pos);
    shapes.push_back(templates.shape);
  }
  ScheduleConfig config;
  config.seed = seed ^ 0x5c4edu;
  config.job_count = job_count;
  config.span_ns = static_cast<std::int64_t>(span_s * 1e9);
  config.tick_ns = kTickNs;
  config.batch_samples = kBatchSamples;
  config.ready_tick = inputs.ready_tick;
  config.churn_share = spec.churn_share;
  config.transports = static_cast<std::uint8_t>(spec.transports.size());
  plan.schedule = build_schedule(config, shapes);
  return plan;
}

bool job_completes(const Plan& plan, std::size_t job) {
  return plan.schedule.jobs[job].trigger_frame != kCloseFrame;
}
const efd::ingest::WireVerdict& expected_verdict(const Inputs& inputs,
                                                 const Plan& plan, std::size_t job) {
  if (!job_completes(plan, job)) return inputs.unready_reference;
  return inputs.reference[plan.job_serve_pos[job]];
}

}  // namespace perfbench
