/// \file main.cpp
/// \brief efd_perfbench: wire-to-wire serving benchmark for `efd_cli serve`.
///
///   efd_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 --efd-cli PATH [--work-dir DIR]
///
/// Untraced (--trace 0): generates the workload's seeded inputs, trains
/// and writes the dictionary, times `serve` set-up (spawn until its TCP
/// listener accepts) several times, drives the last server for S seconds
/// over its real transports, checks every verdict against the
/// Dictionary + Matcher reference, and reports the end-to-end metrics.
/// Traced (--trace 1): the same spawned pass for S/3 seconds, then the
/// serve path in this process for S/3 seconds untraced and S/3 seconds
/// traced, plus traced layer calls, and reports the per-layer metrics.
/// The last stdout line is the JSON result; lines before it starting
/// with '#' are cross-checks.
/// Exit codes: 0 ok, 1 a verdict mismatched the reference or the run
/// failed, 2 bad arguments, 3 the open-loop generator fell behind its
/// schedule (kLagShareOfLatency; run invalid, unscored).

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "drive.hpp"
#include "ingest/shm_transport.hpp"
#include "layers.hpp"
#include "parity.hpp"
#include "server.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string efd_cli;
  std::string work_dir = ".bench_build/perfbench-work";
};

int usage() {
  std::cerr << "usage: efd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --efd-cli PATH [--work-dir DIR]\nworkloads:";
  for (const WorkloadSpec& spec : all_workloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  return 2;
}

/// One spawned-server pass: set-up timings, the drive, the exit rusage
/// and the post-traffic scrapes.
struct ServePass {
  std::vector<double> setup_s;
  DriveResult drive;
  double frame_lag_p99_us = 0.0;  ///< over every frame sent
  double peak_rss_kb = 0.0;       ///< the driven server's, once traffic ended
  ServerProcess::Exit exit;
  std::map<std::string, double> stats;
  std::map<std::string, std::string> stats_text;
  Exposition exposition;
};

std::vector<std::string> serve_args(const WorkloadSpec& spec, const Inputs& inputs,
                                    const std::string& run_dir,
                                    const std::string& shm_name) {
  std::vector<std::string> args = {"serve", "--dict", inputs.dict_path, "--quiet",
                                   "--workers", std::to_string(spec.workers),
                                   "--http", "0"};
  // TCP last: once it accepts, every other listener is up too.
  if (uses(spec, Transport::kShm)) {
    args.insert(args.end(), {"--listen", "shm:" + shm_name});
  }
  if (uses(spec, Transport::kUdp)) {
    args.insert(args.end(), {"--listen", "udp:0"});
  }
  args.insert(args.end(), {"--listen", "tcp:0"});
  if (spec.side_work) {
    // One retrain thread (--threads 1) so a cycle cannot starve the
    // generator of every core.
    args.insert(args.end(), {"--snapshot-path", run_dir + "/snapshots/serve.snap",
                             "--snapshot-every", "250", "--auto-retrain",
                             "--retrain-dry-run", "--retrain-interval-ms", "2000",
                             "--threads", "1"});
  }
  return args;
}

void unlink_shm(const std::string& name) {
  if (!name.empty()) ::shm_unlink(efd::ingest::shm_segment_name(name).c_str());
}

std::string server_log(const ServerProcess& server) {
  std::string log;
  for (const std::string& line : server.output()) log += "\n  " + line;
  return log;
}

std::string describe_exit(const ServerProcess::Exit& exit) {
  if (exit.killed) return "killed after the drain timeout";
  if (WIFSIGNALED(exit.status)) return "signal " + std::to_string(WTERMSIG(exit.status));
  return "exit code " + std::to_string(WEXITSTATUS(exit.status));
}

/// Spawns `serve` kSetupSpawns times to time its set-up, and drives the
/// last one.
ServePass run_serve_pass(const WorkloadSpec& spec, const Inputs& inputs, const Plan& plan,
                         const Options& options, const std::string& run_dir) {
  ServePass pass;
  const bool shm = uses(spec, Transport::kShm);
  const bool udp = uses(spec, Transport::kUdp);
  for (std::size_t spawn = 0; spawn < kSetupSpawns; ++spawn) {
    const bool driven = spawn + 1 == kSetupSpawns;
    const std::string shm_name =
        shm ? "efdbench" + std::to_string(::getpid()) + "x" + std::to_string(spawn)
            : std::string();
    ServerProcess server(options.efd_cli, serve_args(spec, inputs, run_dir, shm_name));
    const auto endpoints =
        server.wait_listening(std::chrono::seconds(60), udp, true, shm_name);
    if (!endpoints) {
      unlink_shm(shm_name);
      throw std::runtime_error("serve did not start:" + server_log(server));
    }
    std::unique_ptr<TcpLink> tcp;
    try {
      // Set-up ends when the TCP listener (bound last) accepts: dictionary
      // load, sharding, index compile and every bind are done.
      tcp = std::make_unique<TcpLink>(endpoints->tcp);
      pass.setup_s.push_back(static_cast<double>(now_ns() - server.spawn_ns()) / 1e9);
      if (!stats_round_trip(*tcp, 60'000, nullptr)) {
        throw std::runtime_error("serve never answered a stats request");
      }
      if (driven) {
        pass.drive = drive(spec, plan, *endpoints, *tcp, nullptr);
        pass.peak_rss_kb = server.peak_rss_kb();
      }
    } catch (...) {
      tcp.reset();
      server.terminate();
      server.wait(std::chrono::seconds(30));
      unlink_shm(shm_name);
      throw;
    }
    tcp.reset();
    server.terminate();
    const ServerProcess::Exit exit = server.wait(std::chrono::seconds(60));
    unlink_shm(shm_name);
    if (!driven) continue;
    // The rusage is scored only for a server that drained and exited 0
    // on SIGTERM.
    if (exit.killed || !WIFEXITED(exit.status) || WEXITSTATUS(exit.status) != 0) {
      throw std::runtime_error("serve did not stop cleanly on SIGTERM (" +
                               describe_exit(exit) + "):" + server_log(server));
    }
    pass.exit = exit;
  }
  pass.frame_lag_p99_us = percentile(pass.drive.lag_ns, 99.0) / 1e3;
  pass.stats = parse_flat_stats(pass.drive.stats_text);
  pass.stats_text = parse_flat_text(pass.drive.stats_text);
  pass.exposition = parse_exposition(pass.drive.metrics_text);
  return pass;
}

/// Verdict latencies are cut, in trigger order, into up to nine segments
/// of at least kVerdictsPerSegment verdicts (60 beyond p90); the p50 and
/// p90 reported are the medians of the segments' percentiles, so a
/// disturbed stretch of one run moves one segment only. Only the p50 is
/// an end-to-end metric: on a shared 4-vCPU host the p90 of a ~140 us
/// path follows how often the host deschedules the VM during the run
/// (see CHANGES.md), so the p90 and the whole-run p99 are reported with
/// the per-layer metrics, unbounded.
constexpr std::size_t kMaxLatencySegments = 9;
constexpr std::size_t kVerdictsPerSegment = 600;

struct EndToEnd {
  ParityTally parity;
  double f_score = 0.0;
  std::size_t verdicts = 0;
  std::vector<double> p50_segments;
  std::vector<double> p90_segments;
  double p50_us = 0.0;  ///< median of the segments' p50
  double p90_us = 0.0;  ///< median of the segments' p90
  double p99_us = 0.0;  ///< whole run
  double cpu_ns_per_sample = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
};

EndToEnd score_pass(const Inputs& inputs, const Plan& plan, const ServePass& pass) {
  EndToEnd e2e;
  const DriveResult& drive = pass.drive;
  DriveScore score = score_drive(inputs, plan, drive);
  e2e.parity = std::move(score.parity);
  e2e.verdicts = score.latency_us.size();
  e2e.f_score = score.f_score;
  const std::size_t segments = std::clamp<std::size_t>(
      score.latency_us.size() / kVerdictsPerSegment, 1, kMaxLatencySegments);
  e2e.p50_segments = segment_percentiles(score.latency_us, segments, 50.0);
  e2e.p90_segments = segment_percentiles(score.latency_us, segments, 90.0);
  e2e.p50_us = median(e2e.p50_segments);
  e2e.p90_us = median(e2e.p90_segments);
  e2e.p99_us = percentile(score.latency_us, 99.0);
  const rusage& usage = pass.exit.usage;
  const double cpu_ns =
      (static_cast<double>(usage.ru_utime.tv_sec) + static_cast<double>(usage.ru_stime.tv_sec)) * 1e9 +
      (static_cast<double>(usage.ru_utime.tv_usec) + static_cast<double>(usage.ru_stime.tv_usec)) * 1e3;
  const auto ingested = pass.stats.find("ingest.samples");
  if (ingested != pass.stats.end() && ingested->second > 0.0) {
    e2e.cpu_ns_per_sample = cpu_ns / ingested->second;
  }
  e2e.peak_rss_mb = pass.peak_rss_kb / 1024.0;
  e2e.setup_s = median(pass.setup_s);
  return e2e;
}

double stat_or_zero(const std::map<std::string, double>& stats, const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second;
}

/// Sums `source.<id>.<field>` over every source.
double sum_sources(const std::map<std::string, double>& stats, const std::string& field) {
  double total = 0.0;
  const std::string suffix = "." + field;
  for (const auto& [name, value] : stats) {
    if (name.rfind("source.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

/// Per-layer counters from the spawned server's own scrapes.
std::map<std::string, double> scraped_layer_metrics(const ServePass& pass) {
  const auto& stats = pass.stats;
  std::map<std::string, double> out;
  out["ingest.transport_failures"] = sum_sources(stats, "drops") +
                                     sum_sources(stats, "gaps") +
                                     sum_sources(stats, "decode_errors");
  const double hits = sum_sources(stats, "pool_hits");
  const double misses = sum_sources(stats, "pool_misses");
  out["ingest.pool_hit_ratio"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const double ingested = stat_or_zero(stats, "ingest.samples");
  out["online.useful_sample_ratio"] =
      ingested > 0.0 ? stat_or_zero(stats, "service.samples_pushed") / ingested : 0.0;
  out["online.pushes_blocked"] = stat_or_zero(stats, "service.pushes_blocked");
  const double delivered = stat_or_zero(stats, "ingest.verdicts_delivered");
  out["obs.latency_coverage"] =
      delivered > 0.0 ? pass.exposition.verdict_latency_count / delivered : 0.0;
  out["obs.scrape_ms"] = median(pass.drive.scrape_ms);
  return out;
}

void print_cross_check(const WorkloadSpec& spec, const ServePass& pass,
                       const EndToEnd& e2e, const LagSummary& lag) {
  std::printf("# %s: %zu jobs (%.0f samples each on average), %zu verdicts, %zu missing, "
              "%zu mismatched\n",
              spec.name.c_str(), pass.drive.jobs,
              static_cast<double>(pass.drive.samples_sent) /
                  static_cast<double>(std::max<std::size_t>(pass.drive.jobs, 1)),
              e2e.verdicts, e2e.parity.missing, e2e.parity.mismatched);
  for (const std::string& example : e2e.parity.examples) {
    std::printf("# mismatch %s\n", example.c_str());
  }
  std::printf("# verdict latency by segment (us), p50:");
  for (const double value : e2e.p50_segments) std::printf(" %.1f", value);
  std::printf("; p90:");
  for (const double value : e2e.p90_segments) std::printf(" %.1f", value);
  std::printf("; whole-run p99 %.1f over %zu verdicts\n", e2e.p99_us, e2e.verdicts);
  std::printf("# gen.lag of the %zu trigger sends: p50 %.1f us (bound %.1f), p99 %.1f us, "
              "max %.1f us; p99 over all frames %.1f us\n",
              lag.sends, lag.p50_us, kLagShareOfLatency * e2e.p50_us, lag.p99_us,
              lag.max_us, pass.frame_lag_p99_us);
  std::printf("# server efd_stage_duration_ns median (log2 bucket upper bound):");
  for (const auto& [stage, bound] : pass.exposition.stage_median_ns) {
    std::printf(" %s<=%.0f", stage.c_str(), bound);
  }
  std::printf("\n# server efd_verdict_latency_ns_count %.0f / verdicts delivered %.0f"
              " = obs.latency_coverage %.3f\n",
              pass.exposition.verdict_latency_count,
              stat_or_zero(pass.stats, "ingest.verdicts_delivered"),
              scraped_layer_metrics(pass)["obs.latency_coverage"]);
  const auto kernel = pass.stats_text.find("build.kernel");
  std::printf("# build.kernel %s, nproc %ld, retrain reports %zu; server VmHWM %.1f MB "
              "(wait4 ru_maxrss %.1f MB, which counts this client's pages too)\n",
              kernel == pass.stats_text.end() ? "?" : kernel->second.c_str(),
              ::sysconf(_SC_NPROCESSORS_ONLN), pass.drive.retrain_reports_ns.size(),
              pass.peak_rss_kb / 1024.0,
              static_cast<double>(pass.exit.usage.ru_maxrss) / 1024.0);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Options& options) {
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr || options.efd_cli.empty() || options.seconds <= 0.0) return usage();
  const std::string run_dir = options.work_dir + "/" + spec->name + "-" +
                              std::to_string(options.seed) + "-" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(run_dir + "/snapshots");
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{run_dir};

  const Inputs inputs = make_inputs(options.seed, run_dir);
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu executions (%zu train, %zu serve), "
               "%zu keys; generate %.2f s, train %.2f s\n",
               spec->name.c_str(), static_cast<unsigned long long>(options.seed),
               inputs.dataset.size(), inputs.train.size(), inputs.serve.size(),
               inputs.dict_keys, inputs.generate_s, inputs.train_s);

  // Traced runs split the time between the spawned pass and the two
  // in-process passes (untraced and traced) that price the tracing.
  const double pass_seconds = options.trace != 0 ? options.seconds / 3.0 : options.seconds;
  const Plan plan = make_plan(*spec, inputs, options.seed, pass_seconds);
  const ServePass pass = run_serve_pass(*spec, inputs, plan, options, run_dir);
  const EndToEnd e2e = score_pass(inputs, plan, pass);
  // The trigger sends are the ones the verdict latencies are measured from.
  const LagSummary lag =
      summarize_lag(pass.drive.trigger_lag_ns, kLagShareOfLatency * e2e.p50_us);
  print_cross_check(*spec, pass, e2e, lag);
  if (!lag.valid) {
    std::fprintf(stderr, "perfbench: invalid run: the generator fell behind its schedule "
                 "(trigger sends late by %.1f us at p50, bound %.1f us); run left "
                 "unscored\n", lag.p50_us, kLagShareOfLatency * e2e.p50_us);
    return 3;
  }

  std::size_t attempted = e2e.parity.attempted;
  std::size_t failed = e2e.parity.failed();
  std::size_t mismatched = e2e.parity.mismatched;
  std::vector<Metric> metrics;
  if (options.trace == 0) {
    metrics = {
        {"setup_s", "s", e2e.setup_s},
        {"verdict_p50_us", "us", e2e.p50_us},
        {"cpu_ns_per_sample", "ns", e2e.cpu_ns_per_sample},
        {"peak_rss_mb", "MB", e2e.peak_rss_mb},
        {"jobs_ok_ratio", "ratio", 1.0 - e2e.parity.failed_ratio()},
        {"f_score", "ratio", e2e.f_score},
    };
  } else {
    const std::string trace_dir = options.work_dir + "/traces";
    std::filesystem::create_directories(trace_dir);
    const std::string trace_path = trace_dir + "/" + spec->name + "-seed" +
                                   std::to_string(options.seed) + ".jsonl";
    LayerReport layers =
        run_traced_pass(*spec, inputs, plan, run_dir, trace_path);
    for (auto& [name, value] : scraped_layer_metrics(pass)) layers.metrics[name] = value;
    layers.metrics["gen.lag_p99_us"] = pass.frame_lag_p99_us;
    layers.metrics["gen.trigger_lag_p50_us"] = lag.p50_us;
    layers.metrics["tail.verdict_p90_us"] = e2e.p90_us;
    layers.metrics["tail.verdict_p99_us"] = e2e.p99_us;
    attempted += layers.parity.attempted;
    failed += layers.parity.failed();
    mismatched += layers.parity.mismatched;
    std::printf("# traced pass: %zu jobs, %zu missing, %zu mismatched; spans in %s\n",
                layers.parity.attempted, layers.parity.missing,
                layers.parity.mismatched, trace_path.c_str());
    static const std::map<std::string, std::string> kUnits = {
        {"ingest.poll_ns_per_sample", "ns"},     {"ingest.decode_ns_per_sample", "ns"},
        {"ingest.envelopes_per_poll", "count"},  {"ingest.send_ns_per_verdict", "ns"},
        {"ingest.flush_wait_p99_us", "us"},      {"ingest.transport_failures", "count"},
        {"ingest.pool_hit_ratio", "ratio"},      {"online.push_batch_ns_per_sample", "ns"},
        {"online.drain_ns_per_sample", "ns"},    {"online.useful_sample_ratio", "ratio"},
        {"online.verdict_lag_p99_us", "us"},     {"online.pushes_blocked", "count"},
        {"online.close_ns", "ns"},               {"online.snapshot_capture_ms", "ms"},
        {"online.snapshot_bytes", "bytes"},      {"core.round_ns_per_lane", "ns"},
        {"core.probe_ns_per_key", "ns"},         {"core.probe_hit_ratio", "ratio"},
        {"core.score_ns_per_verdict", "ns"},     {"core.dict_load_s", "s"},
        {"core.index_build_s", "s"},             {"core.index_bytes", "bytes"},
        {"obs.scrape_ms", "ms"},                 {"obs.latency_coverage", "ratio"},
        {"retrain.cycle_s", "s"},                {"trace.overhead_ratio", "ratio"},
        {"trace.unattributed_share", "ratio"},   {"gen.lag_p99_us", "us"},
        {"gen.trigger_lag_p50_us", "us"},        {"tail.verdict_p90_us", "us"},
        {"tail.verdict_p99_us", "us"},
    };
    for (const auto& [name, unit] : kUnits) {
      const auto it = layers.metrics.find(name);
      metrics.push_back({name, unit, it == layers.metrics.end() ? 0.0 : it->second});
    }
  }
  const bool correct = mismatched == 0;
  print_result(correct, attempted, failed, metrics);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %zu verdicts differ from the reference\n", mismatched);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = std::stoi(value);
    else if (flag == "--efd-cli") options.efd_cli = value;
    else if (flag == "--work-dir") options.work_dir = value;
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
