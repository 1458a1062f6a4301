#pragma once
/// \file tcp_transport.hpp
/// \brief TCP transport: the network ingestion front end.
///
/// TcpServer binds a listening socket, accepts monitoring connections,
/// and runs one reader thread per connection that decodes EFD-WIRE-V1
/// frames and forwards them — tagged with the connection as the verdict
/// reply channel — into a bounded internal RingTransport the pipeline
/// polls. Back-pressure is end-to-end: a full internal ring blocks the
/// reader, which stops draining the socket, which fills the kernel
/// receive window, which stalls the remote sender. A connection whose
/// byte stream fails to decode is dropped (corrupted framing is
/// unrecoverable) and counted.
///
/// TcpClient is the emitter side: connect, send() frames, receive()
/// verdict messages. Used by `efd_cli replay` and by TransportFeed for
/// sampling loops that emit to a remote service.
///
/// Threading: the server owns one accept thread plus one reader thread
/// per live connection. stop() (and the destructor) shuts the listener
/// and all sockets down and joins every thread. Verdict delivery
/// (Connection::deliver) may run concurrently with the reader; socket
/// writes are serialized by a per-connection mutex.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ingest/buffer_pool.hpp"
#include "ingest/ring_transport.hpp"
#include "ingest/transport.hpp"

namespace efd::ingest {

/// Thrown on socket-level failures (bind, connect, write).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TcpServer final : public SampleSource {
 public:
  struct Config {
    std::uint16_t port = 0;          ///< 0 = ephemeral (see port())
    std::size_t queue_capacity = 4096; ///< decoded-message bound
    /// Bound on buffered *samples* across queued batches (0 = 64 x
    /// queue_capacity); the real memory bound — see ring_transport.hpp.
    std::size_t queue_sample_capacity = 0;
    std::size_t read_chunk = 64 * 1024;
  };

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_dropped = 0;  ///< decode errors
    std::uint64_t frames = 0;
    /// Verdicts that could not be written back (peer gone, or it
    /// stopped reading and the send timed out — that connection is
    /// then dropped).
    std::uint64_t verdict_write_failures = 0;
    std::size_t active_connections = 0;
  };

  /// Binds and listens on 127.0.0.1:<port>; throws TransportError.
  explicit TcpServer(const Config& config);
  ~TcpServer() override;

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves ephemeral requests).
  std::uint16_t port() const noexcept { return port_; }

  bool poll(std::vector<Envelope>& out,
            std::chrono::milliseconds timeout) override;

  /// The internal queue rings the mux's doorbell on every enqueue.
  bool attach_doorbell(Doorbell* doorbell) override {
    return queue_.attach_doorbell(doorbell);
  }

  /// Closes the listener and every connection, joins all threads.
  /// Idempotent; poll() reports exhaustion once the queue drains.
  void stop();

  Stats stats() const;

  /// Mux view: frames decoded, corrupt connections as decode errors,
  /// failed verdict writes as drops, reader back-pressure stalls.
  TransportCounters transport_counters() const override;

  /// The server-owned sample buffer pool every reader thread's decoder
  /// acquires from (and the consumer releases back to).
  const SampleBufferPool* buffer_pool() const override { return &pool_; }

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);
  void reap_finished_connections();

  Config config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  RingTransport queue_;
  /// Server-local sample buffer recycling: reader decoders acquire
  /// here, poll() stamps each Envelope with the provenance, dispatch
  /// releases back. Keeps the hot acquire/release cycle off the
  /// process-global pool's shared free list.
  SampleBufferPool pool_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_dropped_{0};
  std::atomic<std::uint64_t> frames_{0};
  /// Shared with every Connection (a connection — held alive by
  /// undelivered Envelopes — can outlive the server).
  std::shared_ptr<std::atomic<std::uint64_t>> verdict_write_failures_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

/// Blocking client for one connection to a TcpServer (or any EFD-WIRE-V1
/// endpoint).
class TcpClient final : public MessageSender {
 public:
  /// Connects to host:port; throws TransportError.
  TcpClient(const std::string& host, std::uint16_t port);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Encodes and writes one frame. Blocking write is the back-pressure
  /// path; throws TransportError on a broken connection.
  void send(Message message) override;

  /// Waits up to \p timeout for the next inbound message (verdicts).
  /// Returns false on timeout, EOF, or a decode error.
  bool receive(Message& out, std::chrono::milliseconds timeout);

  /// receive(), but distinguishing a quiet link from a dead one — the
  /// replication follower's liveness signal (its promote-grace clock
  /// starts at kClosed, not at an idle leader).
  enum class ReceiveStatus {
    kMessage,  ///< one message decoded into \p out
    kTimeout,  ///< no complete frame within \p timeout; link still up
    kClosed,   ///< EOF, socket error, or corrupt framing — link is dead
  };
  ReceiveStatus receive_status(Message& out, std::chrono::milliseconds timeout);

  /// Half-closes the write side so the server sees EOF after the last
  /// frame; receive() keeps working.
  void finish_sending();

 private:
  int fd_ = -1;
  std::mutex write_mutex_;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> encode_buffer_;
};

}  // namespace efd::ingest
