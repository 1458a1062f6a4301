#pragma once
/// \file drive.hpp
/// \brief The client side of one pass: replays a Plan against a serving
/// endpoint over its real transports from this one process, records when
/// each verdict came back, then scrapes the server's counters.
///
/// Open loop: one sender thread sends every frame at its scheduled time
/// (frames due together on TCP share one write), one receiver thread per
/// transport collects verdicts, and the job never waits for the server.
/// The client never uses more than four threads or connections.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ingest/wire_format.hpp"
#include "parity.hpp"
#include "server.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

class TcpLink;

/// Client-side spans of a traced pass.
struct ClientTrace {
  SpanLog send{"client.send"};
  std::vector<SpanLog> receive;  ///< one per receiver thread
  /// Per job: index in `send` of the write carrying its trigger frame.
  std::vector<std::uint32_t> trigger_send_span;
  /// Per job: (receiver log, span index) of the read that returned its verdict.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> verdict_receive_span;
};

struct DriveResult {
  std::size_t jobs = 0;  ///< jobs started
  std::vector<std::optional<efd::ingest::WireVerdict>> verdicts;  ///< per job
  std::vector<std::int64_t> received_ns;  ///< per job (0 = none)
  std::vector<std::int64_t> trigger_ns;   ///< per job: scheduled send, absolute steady ns
  std::vector<double> lag_ns;             ///< per frame: actual - scheduled send
  std::vector<double> trigger_lag_ns;     ///< per job: lag of its trigger frame
  std::uint64_t samples_sent = 0;
  std::vector<std::int64_t> retrain_reports_ns;
  std::vector<double> scrape_ms;  ///< client-timed GET /metrics
  std::string stats_text;         ///< kStatsReply after traffic
  std::string metrics_text;       ///< GET /metrics after traffic
};

/// Replays \p plan against \p endpoints. \p tcp is an open connection to
/// endpoints.tcp (the one set-up timing used); \p trace is null for an
/// untraced pass.
DriveResult drive(const WorkloadSpec& spec, const Plan& plan,
                  const Endpoints& endpoints, TcpLink& tcp, ClientTrace* trace);

/// Sends kStatsRequest on \p tcp and waits up to \p timeout_ms for the
/// reply (used to time set-up: the server answers once it serves).
bool stats_round_trip(TcpLink& tcp, int timeout_ms, std::string* text);

/// A pass's verdicts scored against the reference.
struct DriveScore {
  ParityTally parity;
  std::vector<double> latency_us;  ///< trigger due → verdict received, per verdict
  double f_score = 0.0;            ///< over jobs that stream every window
};
DriveScore score_drive(const Inputs& inputs, const Plan& plan,
                       const DriveResult& result);

}  // namespace perfbench
