#include "ingest/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/binary_io.hpp"

namespace efd::ingest {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

void encode_datagram(std::uint64_t seq, const Message& message,
                     std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  util::put_u32(out, kUdpMagic);
  util::put_u64(out, seq);
  try {
    encode_frame(message, out);
  } catch (...) {
    out.resize(start);
    throw;
  }
  if (out.size() - start > kUdpHeaderBytes + kMaxUdpPayloadBytes) {
    out.resize(start);
    throw std::invalid_argument(
        "frame too large for a UDP datagram; lower the batch size or use "
        "tcp/shm");
  }
}

bool decode_datagram(const std::uint8_t* data, std::size_t size,
                     std::uint64_t& seq, Message& out,
                     SampleBufferPool* pool) {
  if (size < kUdpHeaderBytes) return false;
  util::ByteReader reader(data, size);
  std::uint32_t magic = 0;
  if (!reader.read_u32(magic) || magic != kUdpMagic) return false;
  if (!reader.read_u64(seq)) return false;
  // One datagram = exactly one EFD-WIRE-V1 frame, decoded by the same
  // fuzz-hardened decoder the stream transports use. A fresh decoder per
  // datagram: datagrams are independent — corruption cannot poison a
  // stream, only fail its own datagram.
  FrameDecoder decoder;
  if (pool != nullptr) decoder.set_buffer_pool(pool);
  decoder.feed(data + kUdpHeaderBytes, size - kUdpHeaderBytes);
  Message message;
  if (decoder.next(message) != DecodeStatus::kMessage) return false;
  if (decoder.buffered_bytes() != 0) return false;  // trailing bytes
  out = std::move(message);
  return true;
}

struct UdpServer::SharedSocket {
  std::mutex mutex;
  int fd = -1;
};

/// Best-effort datagram reply channel to one peer address. The socket is
/// the server's; the shared mutex-guarded holder keeps delivery safe
/// against (and after) server shutdown.
struct UdpServer::PeerSink final : VerdictSink {
  PeerSink(std::shared_ptr<SharedSocket> socket, sockaddr_in peer,
           std::shared_ptr<std::atomic<std::uint64_t>> failures)
      : socket(std::move(socket)),
        peer(peer),
        failures(std::move(failures)) {}

  void deliver(const Message& verdict) override {
    std::vector<std::uint8_t> datagram;
    try {
      encode_datagram(next_seq.fetch_add(1, std::memory_order_relaxed) + 1,
                      verdict, datagram);
    } catch (const std::exception&) {
      // Reply too large for a datagram (e.g. a huge stats text): lossy
      // transport, lossy reply — counted, never fatal.
      failures->fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::lock_guard lock(socket->mutex);
    if (socket->fd < 0 ||
        ::sendto(socket->fd, datagram.data(), datagram.size(), MSG_NOSIGNAL,
                 reinterpret_cast<const sockaddr*>(&peer),
                 sizeof(peer)) < 0) {
      failures->fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<SharedSocket> socket;
  sockaddr_in peer;
  std::atomic<std::uint64_t> next_seq{0};
  std::shared_ptr<std::atomic<std::uint64_t>> failures;
};

UdpServer::UdpServer(const Config& config)
    : config_(config),
      queue_(config.queue_capacity, config.queue_sample_capacity) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(config.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) <
      0) {
    close_fd(fd_);
    throw_errno("bind");
  }
  socklen_t length = sizeof(address);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) <
      0) {
    close_fd(fd_);
    throw_errno("getsockname");
  }
  port_ = ntohs(address.sin_port);

  if (config_.receive_buffer_bytes > 0) {
    // Best-effort: the kernel clamps to rmem_max. A bigger buffer only
    // moves where a burst is shed, and our shed is the counted one.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &config_.receive_buffer_bytes,
                 sizeof(config_.receive_buffer_bytes));
  }
  // Periodic recv timeout so the receiver observes stop() without
  // needing to close the socket underneath it.
  timeval recv_timeout{};
  recv_timeout.tv_usec = 100 * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
               sizeof(recv_timeout));

  socket_ = std::make_shared<SharedSocket>();
  socket_->fd = fd_;
  receiver_ = std::thread([this] { receive_loop(); });
}

UdpServer::~UdpServer() { stop(); }

void UdpServer::receive_loop() {
  // Batched receive: one recvmmsg() syscall drains up to kReceiveBatch
  // datagrams that are already queued in the kernel — a replay burst
  // costs 1/kReceiveBatch of the per-datagram syscall overhead.
  // MSG_WAITFORONE blocks for the first datagram only (bounded by the
  // socket's SO_RCVTIMEO, so stop() is still observed every 100 ms) and
  // returns immediately with whatever else is waiting.
  constexpr std::size_t kReceiveBatch = 16;
  constexpr std::size_t kDatagramBytes = 64 * 1024;
  std::vector<std::vector<std::uint8_t>> buffers(
      kReceiveBatch, std::vector<std::uint8_t>(kDatagramBytes));
  std::vector<sockaddr_in> peers(kReceiveBatch);
  std::vector<iovec> iovs(kReceiveBatch);
  std::vector<mmsghdr> headers(kReceiveBatch);

  while (!stopping_.load(std::memory_order_acquire)) {
    // Re-arm every header: the kernel overwrites msg_namelen/msg_len.
    for (std::size_t i = 0; i < kReceiveBatch; ++i) {
      iovs[i] = iovec{buffers[i].data(), buffers[i].size()};
      headers[i] = mmsghdr{};
      headers[i].msg_hdr.msg_name = &peers[i];
      headers[i].msg_hdr.msg_namelen = sizeof(peers[i]);
      headers[i].msg_hdr.msg_iov = &iovs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }
    const int received = ::recvmmsg(fd_, headers.data(), kReceiveBatch,
                                    MSG_WAITFORONE, nullptr);
    if (received < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;  // socket gone
    }
    for (int i = 0; i < received; ++i) {
      handle_datagram(peers[static_cast<std::size_t>(i)],
                      buffers[static_cast<std::size_t>(i)].data(),
                      headers[static_cast<std::size_t>(i)].msg_len);
    }
  }
}

void UdpServer::handle_datagram(const sockaddr_in& peer,
                                const std::uint8_t* data, std::size_t size) {
  datagrams_.fetch_add(1, std::memory_order_relaxed);

  std::uint64_t seq = 0;
  Message message;
  if (!decode_datagram(data, size, seq, message, &pool_) || seq == 0) {
    // One bad datagram fails alone: datagrams are independent, so the
    // peer's later traffic still flows (unlike a corrupted TCP stream).
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t key =
      (static_cast<std::uint64_t>(peer.sin_addr.s_addr) << 16) |
      ntohs(peer.sin_port);
  PeerState& state = peers_[key];
  if (state.sink == nullptr) {
    state.sink = std::make_shared<PeerSink>(socket_, peer,
                                            verdict_send_failures_);
    // Stamp activity BEFORE the sweep: the new entry must not look
    // epoch-old and get erased out from under this reference.
    state.last_activity = now;
    peer_count_.fetch_add(1, std::memory_order_relaxed);
    sweep_idle_peers(now);
  } else if (config_.peer_ttl.count() > 0 &&
             now - state.last_activity > config_.peer_ttl) {
    // Session restart: an emitter that rebooted restarts its seq at 1.
    // After a TTL of silence its old high-water mark must not shed the
    // new session's traffic as "duplicates" for hours.
    state.last_seq = 0;
    state.control_seen.fill(ControlSeen{});
    state.control_next = 0;
  }
  state.last_activity = now;
  if (state.last_seq == 0) {
    // First datagram of a session (brand-new peer, TTL resume, or a
    // peer the idle sweep evicted and that came back): accept at face
    // value, count NO initial gap. A session's pre-contact history is
    // indistinguishable from a late start, and booking it as loss
    // would poison the very counter operators use to exclude lossy
    // sources. Within-session holes below are the reliable signal.
  } else if (seq <= state.last_seq) {
    // Duplicate or reordered-behind-delivery: re-dispatching would
    // double-count its samples, so it is shed — and counted.
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return;
  } else if (seq > state.last_seq + 1) {
    gaps_.fetch_add(seq - state.last_seq - 1, std::memory_order_relaxed);
  }
  state.last_seq = seq;

  // Emitter control-frame retransmits arrive under FRESH sequence
  // numbers (so the duplicate shed above cannot catch them); absorb a
  // repeat of any recently dispatched open/close here instead of
  // re-dispatching it into the pipeline (a re-delivered kOpenJob for a
  // finished job would re-open it as a ghost). Linear scan of a small
  // ring: control frames are two per job, never the sample hot path.
  if (message.type == MessageType::kOpenJob ||
      message.type == MessageType::kCloseJob) {
    const bool close = message.type == MessageType::kCloseJob;
    for (const ControlSeen& seen : state.control_seen) {
      if (seen.job_id == message.job_id && seen.close == close) {
        control_retransmits_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    state.control_seen[state.control_next] = ControlSeen{message.job_id, close};
    state.control_next = (state.control_next + 1) % kControlHistorySize;
  }

  // Lossy discipline end-to-end: a full internal queue sheds the
  // datagram visibly instead of stalling the receiver into opaque
  // kernel-buffer drops. Accepted frames are counted by the queue
  // itself, under its lock, so stats() is never behind an enqueue a
  // poll already observed.
  if (!queue_.try_send_with_reply(std::move(message), state.sink)) {
    queue_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpServer::sweep_idle_peers(std::chrono::steady_clock::time_point now) {
  // Amortized (only when the map doubled past its post-sweep size):
  // a steady peer population never re-pays the scan, but a server
  // facing ephemeral-port replayers cannot accumulate state forever.
  if (config_.peer_ttl.count() <= 0 || peers_.size() < peers_sweep_at_) {
    return;
  }
  std::size_t evicted = 0;
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (now - it->second.last_activity > config_.peer_ttl) {
      it = peers_.erase(it);  // the sink stays alive via live envelopes
      ++evicted;
    } else {
      ++it;
    }
  }
  peer_count_.fetch_sub(evicted, std::memory_order_relaxed);
  peers_sweep_at_ = std::max<std::size_t>(64, peers_.size() * 2);
}

bool UdpServer::poll(std::vector<Envelope>& out,
                     std::chrono::milliseconds timeout) {
  // Stamp pool provenance on the entries this call appended, so the
  // consumer releases sample buffers back to THIS server's pool.
  const std::size_t before = out.size();
  const bool alive = queue_.poll(out, timeout);
  for (std::size_t i = before; i < out.size(); ++i) out[i].pool = &pool_;
  return alive;
}

void UdpServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (receiver_.joinable()) receiver_.join();
  {
    // The receiver is gone; sinks held by undelivered envelopes observe
    // fd < 0 under the shared mutex from here on.
    std::lock_guard lock(socket_->mutex);
    close_fd(socket_->fd);
    fd_ = -1;
  }
  queue_.close();
}

UdpServer::Stats UdpServer::stats() const {
  Stats stats;
  stats.datagrams = datagrams_.load(std::memory_order_relaxed);
  stats.frames = queue_.transport_counters().frames;
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  stats.gaps = gaps_.load(std::memory_order_relaxed);
  stats.duplicates = duplicates_.load(std::memory_order_relaxed);
  stats.queue_drops = queue_drops_.load(std::memory_order_relaxed);
  stats.verdict_send_failures =
      verdict_send_failures_->load(std::memory_order_relaxed);
  stats.control_retransmits =
      control_retransmits_.load(std::memory_order_relaxed);
  stats.peers = peer_count_.load(std::memory_order_relaxed);
  return stats;
}

TransportCounters UdpServer::transport_counters() const {
  const Stats stats = this->stats();
  TransportCounters counters;
  counters.frames = stats.frames;
  counters.decode_errors = stats.decode_errors;
  counters.drops = stats.duplicates + stats.queue_drops;
  counters.gaps = stats.gaps;
  counters.blocked = 0;  // lossy mode never back-pressures
  counters.retransmits = stats.control_retransmits;
  return counters;
}

UdpClient::UdpClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    close_fd(fd_);
    throw TransportError("invalid host address: " + host);
  }
  // Connected-UDP: send()/recv() without per-call addressing, and only
  // the server's replies are accepted.
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) < 0) {
    close_fd(fd_);
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
}

UdpClient::~UdpClient() { close_fd(fd_); }

void UdpClient::send(Message message) {
  std::lock_guard lock(write_mutex_);

  // Bundle every still-pending control frame ahead of this message —
  // one sendmmsg() syscall ships the retransmits AND the new frame.
  // Each copy gets a fresh sequence number: the server's duplicate shed
  // is seq-based, so a stale seq would be discarded before its content
  // could be absorbed (and would poison the gap accounting).
  std::size_t count = 0;
  const auto add_datagram = [&](const Message& m) {
    if (count == datagram_buffers_.size()) datagram_buffers_.emplace_back();
    std::vector<std::uint8_t>& buffer = datagram_buffers_[count];
    buffer.clear();
    encode_datagram(++next_seq_, m, buffer);
    ++count;
  };
  for (auto it = pending_control_.begin(); it != pending_control_.end();) {
    add_datagram(it->message);
    retransmits_.fetch_add(1, std::memory_order_relaxed);
    if (--it->remaining <= 0) {
      it = pending_control_.erase(it);  // budget exhausted: give up
    } else {
      ++it;
    }
  }
  add_datagram(message);

  std::vector<iovec> iovs(count);
  std::vector<mmsghdr> headers(count);
  for (std::size_t i = 0; i < count; ++i) {
    iovs[i] = iovec{datagram_buffers_[i].data(), datagram_buffers_[i].size()};
    headers[i] = mmsghdr{};
    headers[i].msg_hdr.msg_iov = &iovs[i];
    headers[i].msg_hdr.msg_iovlen = 1;
  }
  std::size_t sent = 0;
  while (sent < count) {
    const int n = ::sendmmsg(fd_, headers.data() + sent,
                             static_cast<unsigned int>(count - sent),
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("datagram send");
    }
    sent += static_cast<std::size_t>(n);
  }

  // Track the just-sent control frame AFTER shipping it, so its own
  // send() doesn't count as a retransmit. Oldest pending is dropped
  // beyond the bound — the budget caps memory, not correctness (a job
  // whose open truly vanished ends in the server's stale sweep).
  if (message.type == MessageType::kOpenJob ||
      message.type == MessageType::kCloseJob) {
    if (pending_control_.size() >= kMaxPendingControl) {
      pending_control_.erase(pending_control_.begin());
    }
    pending_control_.push_back(PendingControl{std::move(message)});
  }
}

std::size_t UdpClient::pending_control() const {
  std::lock_guard lock(write_mutex_);
  return pending_control_.size();
}

bool UdpClient::receive(Message& out, std::chrono::milliseconds timeout) {
  std::uint8_t buffer[64 * 1024];
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const auto wait =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (received < 0 && errno == EINTR) continue;
    if (received < 0) return false;
    std::uint64_t seq = 0;
    if (decode_datagram(buffer, static_cast<std::size_t>(received), seq,
                        out)) {
      if (out.type == MessageType::kVerdict) {
        // A verdict proves the server knows this job: its control
        // frames arrived, so stop re-sending them.
        std::lock_guard lock(write_mutex_);
        std::erase_if(pending_control_, [&](const PendingControl& pending) {
          return pending.message.job_id == out.job_id;
        });
      }
      return true;
    }
    // Malformed reply datagram: skip it, keep waiting for a good one.
  }
}

}  // namespace efd::ingest
