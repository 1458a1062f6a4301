#include "server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::optional<long long> number_after(const std::string& line,
                                      const std::string& prefix) {
  if (line.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string rest = line.substr(prefix.size());
  char* end = nullptr;
  const long long value = std::strtoll(rest.c_str(), &end, 10);
  if (end == rest.c_str()) return std::nullopt;
  return value;
}

int connect_localhost(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe,
                             const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  std::vector<std::string> argv_storage;
  argv_storage.push_back(exe);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  spawn_ns_ = now_ns();
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }
  out_fd_ = pipe_fds[0];
  reader_ = std::thread([this] { read_loop(); });
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    reaped_ = true;
  }
  if (reader_.joinable()) reader_.join();
  if (out_fd_ >= 0) ::close(out_fd_);
}

void ServerProcess::read_loop() {
  std::string pending;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(out_fd_, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buffer, static_cast<std::size_t>(n));
    std::size_t newline;
    std::lock_guard lock(mutex_);
    while ((newline = pending.find('\n')) != std::string::npos) {
      lines_.push_back(pending.substr(0, newline));
      pending.erase(0, newline + 1);
    }
    changed_.notify_all();
  }
  std::lock_guard lock(mutex_);
  if (!pending.empty()) lines_.push_back(pending);
  eof_ = true;
  changed_.notify_all();
}

std::optional<Endpoints> ServerProcess::wait_listening(
    std::chrono::milliseconds timeout, bool want_udp, bool want_http,
    const std::string& shm_name) {
  Endpoints endpoints;
  endpoints.shm = shm_name;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(mutex_);
  std::size_t seen = 0;
  for (;;) {
    for (; seen < lines_.size(); ++seen) {
      const std::string& line = lines_[seen];
      if (auto port = number_after(line, "listening on port ")) {
        endpoints.tcp = static_cast<std::uint16_t>(*port);
      } else if (auto udp = number_after(line, "listening on udp port ")) {
        endpoints.udp = static_cast<std::uint16_t>(*udp);
      } else if (auto http = number_after(line, "http: listening on 127.0.0.1:")) {
        endpoints.http = static_cast<std::uint16_t>(*http);
      }
    }
    if (endpoints.tcp != 0 && (!want_udp || endpoints.udp != 0) &&
        (!want_http || endpoints.http != 0)) {
      return endpoints;
    }
    if (eof_) return std::nullopt;
    if (changed_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return std::nullopt;
    }
  }
}

double ServerProcess::peak_rss_kb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0.0;
}

void ServerProcess::terminate() {
  if (pid_ > 0 && !reaped_) ::kill(pid_, SIGTERM);
}

ServerProcess::Exit ServerProcess::wait(std::chrono::milliseconds timeout) {
  Exit exit;
  if (pid_ <= 0 || reaped_) return exit;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &exit.usage);
    if (done == pid_) {
      exit.status = status;
      break;
    }
    if (done < 0 && errno != EINTR) break;
    if (std::chrono::steady_clock::now() >= deadline && !exit.killed) {
      ::kill(pid_, SIGKILL);
      exit.killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  reaped_ = true;
  return exit;
}

std::vector<std::string> ServerProcess::output() const {
  std::lock_guard lock(mutex_);
  return lines_;
}

TcpLink::TcpLink(std::uint16_t port) {
  fd_ = connect_localhost(port);
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpLink::~TcpLink() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpLink::write_all(const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection lost while sending");
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

long TcpLink::read_some(std::uint8_t* buffer, std::size_t capacity,
                        int timeout_ms, std::int64_t* ready_ns) {
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready_ns != nullptr) *ready_ns = now_ns();
  if (ready < 0) return errno == EINTR ? 0 : -1;
  if (ready == 0) return 0;
  const ssize_t n = ::recv(fd_, buffer, capacity, 0);
  if (n < 0) return errno == EINTR || errno == EAGAIN ? 0 : -1;
  if (n == 0) return -1;
  return n;
}

std::string http_get(std::uint16_t port, const std::string& path,
                     double* elapsed_ms) {
  const std::int64_t start = now_ns();
  const int fd = connect_localhost(port);
  if (fd < 0) return {};
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[16384];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) break;
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (elapsed_ms != nullptr) {
    *elapsed_ms = static_cast<double>(now_ns() - start) / 1e6;
  }
  const std::size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 200", 0) != 0 || body == std::string::npos) {
    return {};
  }
  return response.substr(body + 4);
}

std::map<std::string, std::string> parse_flat_text(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = line.substr(space + 1);
  }
  return out;
}

std::map<std::string, double> parse_flat_stats(const std::string& text) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : parse_flat_text(text)) {
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0') out[name] = number;
  }
  return out;
}

Exposition parse_exposition(const std::string& text) {
  Exposition exposition;
  // stage → (le, cumulative) in file order (ascending le).
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> counts;
  std::istringstream in(text);
  std::string line;
  const std::string stage_bucket = "efd_stage_duration_ns_bucket{stage=\"";
  const std::string stage_count = "efd_stage_duration_ns_count{stage=\"";
  while (std::getline(in, line)) {
    if (line.rfind("efd_verdict_latency_ns_count ", 0) == 0) {
      exposition.verdict_latency_count =
          std::strtod(line.c_str() + std::strlen("efd_verdict_latency_ns_count "), nullptr);
      continue;
    }
    const bool is_bucket = line.rfind(stage_bucket, 0) == 0;
    const bool is_count = line.rfind(stage_count, 0) == 0;
    if (!is_bucket && !is_count) continue;
    const std::size_t name_start = (is_bucket ? stage_bucket : stage_count).size();
    const std::size_t name_end = line.find('"', name_start);
    const std::size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) continue;
    const std::string stage = line.substr(name_start, name_end - name_start);
    const double value = std::strtod(line.c_str() + value_at + 1, nullptr);
    if (is_count) {
      counts[stage] = value;
      continue;
    }
    const std::size_t le = line.find("le=\"", name_end);
    if (le == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
    const double upper = bound == "+Inf" ? -1.0 : std::strtod(bound.c_str(), nullptr);
    buckets[stage].emplace_back(upper, value);
  }
  for (const auto& [stage, rows] : buckets) {
    const double total = counts[stage];
    if (total <= 0.0) continue;
    for (const auto& [upper, cumulative] : rows) {
      if (cumulative * 2.0 >= total) {
        exposition.stage_median_ns[stage] = upper;
        break;
      }
    }
  }
  return exposition;
}

}  // namespace perfbench
