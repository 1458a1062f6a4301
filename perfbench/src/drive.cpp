#include "drive.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ingest/shm_transport.hpp"
#include "ingest/udp_transport.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using efd::ingest::Message;
using efd::ingest::MessageType;

constexpr int kReceivePollMs = 2;
constexpr std::int64_t kSpinNs = 200'000;
constexpr std::int64_t kVerdictGraceNs = 15'000'000'000;
constexpr std::int64_t kScrapePeriodNs = 1'000'000'000;

/// State the sender, the receivers and the caller share during a pass.
struct Session {
  Session(const WorkloadSpec& spec_in, DriveResult& result_in, ClientTrace* trace_in)
      : spec(spec_in), result(result_in), trace(trace_in) {}

  const WorkloadSpec& spec;
  DriveResult& result;
  ClientTrace* trace;
  std::atomic<std::size_t> received{0};
  std::atomic<bool> stop{false};

  std::mutex mutex;  // guards stats_text, stats_ready, retrain reports
  std::condition_variable stats_cv;
  bool stats_ready = false;

  /// Records one inbound message; returns the job index of a first
  /// verdict, or -1.
  long handle(Message& message, std::int64_t at) {
    switch (message.type) {
      case MessageType::kVerdict: {
        if (message.job_id == 0 || message.job_id > result.verdicts.size()) return -1;
        const std::size_t job = message.job_id - 1;
        if (result.verdicts[job].has_value()) return -1;  // duplicate
        result.verdicts[job] = std::move(message.verdict);
        result.received_ns[job] = at;
        received.fetch_add(1, std::memory_order_release);
        return static_cast<long>(job);
      }
      case MessageType::kStatsReply: {
        std::lock_guard lock(mutex);
        result.stats_text = message.stats_text;
        stats_ready = true;
        stats_cv.notify_all();
        return -1;
      }
      case MessageType::kRetrainReport: {
        std::lock_guard lock(mutex);
        result.retrain_reports_ns.push_back(at);
        return -1;
      }
      default:
        return -1;
    }
  }

  void note_receive(std::uint32_t log, std::int64_t start, long job) {
    if (trace == nullptr || job < 0) return;
    const std::uint32_t span = trace->receive[log].add(
        "client.receive", start, now_ns(), static_cast<std::uint64_t>(job) + 1, 1);
    trace->verdict_receive_span[static_cast<std::size_t>(job)] = {log, span};
  }
};

void tcp_receive_loop(Session& session, TcpLink& tcp, std::uint32_t log) {
  efd::ingest::FrameDecoder decoder;
  decoder.set_buffer_pool(nullptr);
  std::vector<std::uint8_t> buffer(256 * 1024);
  Message message;
  while (!session.stop.load(std::memory_order_acquire)) {
    std::int64_t ready = 0;
    const long n = tcp.read_some(buffer.data(), buffer.size(), kReceivePollMs, &ready);
    if (n < 0) break;
    if (n == 0) continue;
    const std::int64_t at = now_ns();
    decoder.feed(buffer.data(), static_cast<std::size_t>(n));
    while (decoder.next(message) == efd::ingest::DecodeStatus::kMessage) {
      session.note_receive(log, ready, session.handle(message, at));
    }
    if (decoder.failed()) break;
  }
}

/// Receives on a UDP or SHM client; the first such thread also takes the
/// periodic /metrics scrapes when the workload asks for them.
template <typename Client>
void message_receive_loop(Session& session, Client& client, std::uint32_t log,
                          std::uint16_t scrape_port) {
  Message message;
  std::int64_t next_scrape = now_ns() + kScrapePeriodNs;
  while (!session.stop.load(std::memory_order_acquire)) {
    if (scrape_port != 0 && now_ns() >= next_scrape) {
      double ms = 0.0;
      if (!http_get(scrape_port, "/metrics", &ms).empty()) {
        std::lock_guard lock(session.mutex);
        session.result.scrape_ms.push_back(ms);
      }
      next_scrape += kScrapePeriodNs;
    }
    if (!client.receive(message, std::chrono::milliseconds(kReceivePollMs))) continue;
    const std::int64_t at = now_ns();
    session.note_receive(log, at, session.handle(message, at));
  }
}

void wait_for_verdicts(Session& session, std::size_t jobs, std::int64_t deadline) {
  while (session.received.load(std::memory_order_acquire) < jobs &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The server's counters once traffic has ended: a kStatsRequest on the
/// TCP connection and, when the plane is up, one GET /metrics.
void scrape_after_traffic(Session& session, TcpLink& tcp, std::uint16_t http_port) {
  const std::vector<std::uint8_t> request =
      efd::ingest::encode(efd::ingest::make_stats_request());
  tcp.write_all(request.data(), request.size());
  {
    std::unique_lock lock(session.mutex);
    session.stats_cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return session.stats_ready; });
  }
  if (http_port == 0) return;
  double ms = 0.0;
  session.result.metrics_text = http_get(http_port, "/metrics", &ms);
  if (!session.result.metrics_text.empty()) {
    std::lock_guard lock(session.mutex);
    session.result.scrape_ms.push_back(ms);
  }
}

void send_open_loop(Session& session, const Plan& plan,
                    TcpLink& tcp, efd::ingest::UdpClient* udp,
                    efd::ingest::ShmRingClient* shm) {
  const WorkloadSpec& spec = session.spec;
  DriveResult& result = session.result;
  const auto& frames = plan.schedule.frames;
  const auto& jobs = plan.schedule.jobs;
  const std::size_t n = frames.size();
  result.lag_ns.assign(n, 0.0);
  const std::int64_t base = now_ns() + 5'000'000;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    result.trigger_ns[j] = base + jobs[j].trigger_ns;
  }
  const auto is_trigger = [&](const Frame& frame) {
    return frame.number == jobs[frame.job].trigger_frame;
  };

  // Sleep until just before the next frame is due, then spin the rest:
  // a wake-up from sleep alone is late by tens of microseconds on a VM,
  // which would blur the schedule's timing. The spin is short, so the
  // generator still leaves the cores to the server; any lateness left is
  // recorded as lag.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::vector<std::uint8_t> tcp_batch;
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t due = base + frames[i].sched_ns;
    std::int64_t t = now_ns();
    if (t < due - kSpinNs) {
      const std::int64_t wake = due - kSpinNs;
      const timespec until{static_cast<time_t>(wake / 1'000'000'000),
                           static_cast<long>(wake % 1'000'000'000)};
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr);
      continue;
    }
    while (t < due) t = now_ns();
    std::size_t end = i;
    while (end < n && base + frames[end].sched_ns <= t) ++end;
    const std::int64_t start = now_ns();
    // Frames due together on TCP go out in one write.
    tcp_batch.clear();
    for (std::size_t k = i; k < end; ++k) {
      const Frame& frame = frames[k];
      const FrameTemplates& templates = plan.job_templates(frame.job);
      result.samples_sent += templates.samples[templates.index(frame)];
      if (spec.transports[jobs[frame.job].transport] == Transport::kTcp) {
        append_frame(templates, templates.index(frame), frame.job + 1ull, tcp_batch);
      }
    }
    const std::int64_t tcp_sent = now_ns();
    if (!tcp_batch.empty()) tcp.write_all(tcp_batch.data(), tcp_batch.size());
    for (std::size_t k = i; k < end; ++k) {
      const Frame& frame = frames[k];
      const Transport transport = spec.transports[jobs[frame.job].transport];
      std::int64_t sent = tcp_sent;
      if (transport != Transport::kTcp) {
        const FrameTemplates& templates = plan.job_templates(frame.job);
        Message message = templates.messages[templates.index(frame)];
        message.job_id = frame.job + 1ull;
        sent = now_ns();
        if (transport == Transport::kUdp) {
          udp->send(std::move(message));
        } else {
          shm->send(std::move(message));
        }
      }
      result.lag_ns[k] = static_cast<double>(sent - (base + frame.sched_ns));
      if (is_trigger(frame)) result.trigger_lag_ns[frame.job] = result.lag_ns[k];
    }
    const std::int64_t stop = now_ns();
    if (session.trace != nullptr) {
      const std::uint32_t span =
          session.trace->send.add("client.send", start, stop, 0, end - i);
      for (std::size_t k = i; k < end; ++k) {
        if (is_trigger(frames[k])) session.trace->trigger_send_span[frames[k].job] = span;
      }
    }
    i = end;
  }
}

}  // namespace

bool stats_round_trip(TcpLink& tcp, int timeout_ms, std::string* text) {
  const std::vector<std::uint8_t> request =
      efd::ingest::encode(efd::ingest::make_stats_request());
  tcp.write_all(request.data(), request.size());
  efd::ingest::FrameDecoder decoder;
  decoder.set_buffer_pool(nullptr);
  std::vector<std::uint8_t> buffer(64 * 1024);
  Message message;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  while (now_ns() < deadline) {
    const long n = tcp.read_some(buffer.data(), buffer.size(), 5);
    if (n < 0) return false;
    if (n == 0) continue;
    decoder.feed(buffer.data(), static_cast<std::size_t>(n));
    while (decoder.next(message) == efd::ingest::DecodeStatus::kMessage) {
      if (message.type == MessageType::kStatsReply) {
        if (text != nullptr) *text = message.stats_text;
        return true;
      }
    }
  }
  return false;
}

DriveScore score_drive(const Inputs& inputs, const Plan& plan,
                       const DriveResult& result) {
  DriveScore score;
  std::vector<std::string> truth;
  std::vector<std::string> predicted;
  for (std::size_t job = 0; job < result.jobs; ++job) {
    const auto& expected = expected_verdict(inputs, plan, job);
    const auto& got = result.verdicts[job];
    const VerdictOutcome outcome = check_verdict(expected, got);
    score.parity.add(outcome);
    if (outcome == VerdictOutcome::kMismatch &&
        score.parity.examples.size() < ParityTally::kMaxExamples) {
      score.parity.examples.push_back("job " + std::to_string(job + 1) + ": " +
                                      describe_difference(expected, *got));
    }
    if (got.has_value()) {
      score.latency_us.push_back(
          static_cast<double>(result.received_ns[job] - result.trigger_ns[job]) / 1e3);
    }
    if (job_completes(plan, job)) {
      const auto pos = plan.job_serve_pos[job];
      truth.push_back(inputs.dataset.record(inputs.serve[pos]).label().application);
      predicted.push_back(got.has_value() ? got->application : std::string("(missing)"));
    }
  }
  score.f_score = macro_f_score(truth, predicted);
  return score;
}

DriveResult drive(const WorkloadSpec& spec, const Plan& plan,
                  const Endpoints& endpoints, TcpLink& tcp, ClientTrace* trace) {
  DriveResult result;
  const std::size_t capacity = plan.schedule.jobs.size();
  result.jobs = capacity;
  result.verdicts.resize(capacity);
  result.received_ns.assign(capacity, 0);
  result.trigger_ns.assign(capacity, 0);
  result.trigger_lag_ns.assign(capacity, 0.0);
  if (trace != nullptr) {
    trace->trigger_send_span.assign(capacity, kNoParent);
    trace->verdict_receive_span.assign(capacity, {kNoParent, kNoParent});
    trace->receive.clear();
  }
  Session session(spec, result, trace);

  std::unique_ptr<efd::ingest::UdpClient> udp;
  std::unique_ptr<efd::ingest::ShmRingClient> shm;
  for (const Transport transport : spec.transports) {
    if (transport == Transport::kUdp) {
      udp = std::make_unique<efd::ingest::UdpClient>("127.0.0.1", endpoints.udp);
    } else if (transport == Transport::kShm) {
      shm = std::make_unique<efd::ingest::ShmRingClient>(endpoints.shm);
    }
  }
  if (trace != nullptr) {
    trace->receive.emplace_back("client.receive.tcp");
    if (udp) trace->receive.emplace_back("client.receive.udp");
    if (shm) trace->receive.emplace_back("client.receive.shm");
  }

  std::vector<std::thread> receivers;
  receivers.emplace_back([&] { tcp_receive_loop(session, tcp, 0); });
  std::uint16_t scrape_port = spec.side_work ? endpoints.http : 0;
  std::uint32_t next_log = 1;
  if (udp) {
    const std::uint32_t log = next_log++;
    receivers.emplace_back(
        [&, log, scrape_port] { message_receive_loop(session, *udp, log, scrape_port); });
    scrape_port = 0;
  }
  if (shm) {
    const std::uint32_t log = next_log++;
    receivers.emplace_back(
        [&, log, scrape_port] { message_receive_loop(session, *shm, log, scrape_port); });
  }

  std::exception_ptr failure;
  try {
    send_open_loop(session, plan, tcp, udp.get(), shm.get());
    wait_for_verdicts(session, result.jobs, now_ns() + kVerdictGraceNs);
    scrape_after_traffic(session, tcp, endpoints.http);
  } catch (...) {
    failure = std::current_exception();
  }
  session.stop.store(true, std::memory_order_release);
  for (std::thread& receiver : receivers) receiver.join();
  if (failure) std::rethrow_exception(failure);

  return result;
}

}  // namespace perfbench
