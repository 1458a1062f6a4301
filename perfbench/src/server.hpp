#pragma once
/// \file server.hpp
/// \brief The real `efd_cli serve` as a child process, plus the raw
/// client-side plumbing the benchmark drives it with: a TCP link that
/// writes pre-encoded frames, an HTTP GET, and parsers for the flat stats
/// scrape and the Prometheus exposition.

#include <sys/resource.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Where a running server listens.
struct Endpoints {
  std::uint16_t tcp = 0;
  std::uint16_t udp = 0;
  std::uint16_t http = 0;
  std::string shm;
};

/// One spawned `efd_cli serve`. Its stdout is read on a helper thread
/// (the listening lines give the ports); the destructor kills and reaps
/// the process if the caller did not.
class ServerProcess {
 public:
  ServerProcess(const std::string& exe, const std::vector<std::string>& args);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// steady-clock ns just before the spawn.
  std::int64_t spawn_ns() const noexcept { return spawn_ns_; }

  /// Waits until every listener line the arguments imply has been
  /// printed; nullopt when the process exits or the timeout passes.
  std::optional<Endpoints> wait_listening(std::chrono::milliseconds timeout,
                                          bool want_udp, bool want_http,
                                          const std::string& shm_name);

  /// The server's own peak resident set so far (VmHWM, kB); 0 when it
  /// cannot be read. wait4's ru_maxrss is not used for this: it also
  /// counts the resident set of this process, which the child shares
  /// from the spawn until its exec.
  double peak_rss_kb() const;

  /// Sends SIGTERM (the server drains and exits 0).
  void terminate();

  struct Exit {
    int status = -1;        ///< wait status
    bool killed = false;    ///< needed SIGKILL after the timeout
    rusage usage{};
  };
  /// Reaps the process (SIGKILL after \p timeout) and returns its rusage.
  Exit wait(std::chrono::milliseconds timeout);

  std::vector<std::string> output() const;

 private:
  void read_loop();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::int64_t spawn_ns_ = 0;
  bool reaped_ = false;
  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::vector<std::string> lines_;
  bool eof_ = false;
  std::thread reader_;  // last: joined before the members it uses die
};

/// Blocking TCP connection to 127.0.0.1 with TCP_NODELAY.
class TcpLink {
 public:
  explicit TcpLink(std::uint16_t port);
  ~TcpLink();
  TcpLink(const TcpLink&) = delete;
  TcpLink& operator=(const TcpLink&) = delete;

  /// Writes all \p size bytes (throws on a dead link).
  void write_all(const std::uint8_t* data, std::size_t size);
  /// Waits up to \p timeout_ms for bytes; returns the count read, 0 on
  /// timeout, -1 when the link closed. \p ready_ns (optional) receives the
  /// steady-clock time the wait ended, so a caller can time the receive
  /// itself apart from the idle wait before it.
  long read_some(std::uint8_t* buffer, std::size_t capacity, int timeout_ms,
                 std::int64_t* ready_ns = nullptr);

 private:
  int fd_ = -1;
};

/// GET http://127.0.0.1:port<path>; returns the body (empty on failure)
/// and the client-timed round trip in \p elapsed_ms.
std::string http_get(std::uint16_t port, const std::string& path,
                     double* elapsed_ms);

/// "name value" lines → numeric values (non-numeric rows are skipped).
std::map<std::string, double> parse_flat_stats(const std::string& text);
/// "name value" lines → raw text values.
std::map<std::string, std::string> parse_flat_text(const std::string& text);

/// The few exposition series the benchmark cross-checks.
struct Exposition {
  double verdict_latency_count = 0.0;
  /// stage → upper bound (ns) of the log2 bucket holding its median.
  std::map<std::string, double> stage_median_ns;
};
Exposition parse_exposition(const std::string& text);

}  // namespace perfbench
