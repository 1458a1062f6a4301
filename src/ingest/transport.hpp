#pragma once
/// \file transport.hpp
/// \brief Transport abstractions of the ingestion pipeline.
///
/// A transport moves wire-format Messages (see wire_format.hpp) from
/// emitters (node daemons, replayers, the in-process sampling loop) to
/// the recognition service, and verdicts back. Four implementations
/// ship: a TCP socket server (tcp_transport.hpp), a lossy-tolerant UDP
/// datagram server (udp_transport.hpp), a cross-process shared-memory
/// ring (shm_transport.hpp), and a bounded in-process ring
/// (ring_transport.hpp). The pipeline (pipeline.hpp) only ever sees the
/// interfaces here — plus SourceMux (source_mux.hpp), which fans any
/// number of registered sources into one polled stream with per-source
/// accounting — so new transports (RDMA, ...) slot in without touching
/// recognition code. The Doorbell below is the one wake-up signal every
/// source rings, so the mux waits on all of them at once.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ingest/wire_format.hpp"

namespace efd::ingest {

/// Stable identity of a registered ingest source within a SourceMux
/// (assigned at registration, dense from 0). 0 is also the implicit id
/// of a pipeline's only source in the legacy single-source mode.
using SourceId = std::uint32_t;

/// Where a job's verdict is sent back. Implementations must tolerate
/// delivery from the pipeline's thread and a destroyed peer (best
/// effort: a verdict for a vanished connection is dropped silently).
class VerdictSink {
 public:
  virtual ~VerdictSink() = default;
  virtual void deliver(const Message& verdict) = 0;

  /// Delivers a run of messages bound for the same peer. The default
  /// loops deliver(); transports with a cheaper bulk path override it
  /// (the TCP connection flushes the whole run in one vectored write).
  virtual void deliver_many(std::span<const Message> verdicts) {
    for (const Message& verdict : verdicts) deliver(verdict);
  }
};

/// futex(2) wait: sleeps while \p word holds \p expected, up to \p timeout
/// (spurious and early returns are allowed; callers re-check). \p shared
/// selects a word in a MAP_SHARED segment that another process wakes.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                std::chrono::nanoseconds timeout, bool shared) noexcept;

/// futex(2) wake of every thread sleeping on \p word.
void futex_wake_all(std::atomic<std::uint32_t>& word, bool shared) noexcept;

/// An eventcount on one futex word. A consumer takes ticket(), re-checks
/// whatever it waits for, then wait(ticket, timeout): the wait returns
/// as soon as any ring() since the ticket moved the count, so a ring
/// between the check and the sleep is never lost. Producers ring() after
/// publishing work; the waiter count lets ring() skip the FUTEX_WAKE
/// syscall while nobody sleeps — the common case while the consumer is
/// busy draining. Standard layout and address-free, so the cross-process
/// flavor (kShared = true) can live inside a shared-memory segment
/// (EFD-SHM-V2's header carries one per ring direction).
template <bool kShared>
class BasicDoorbell {
 public:
  std::uint32_t ticket() const noexcept {
    return count_.load(std::memory_order_seq_cst);
  }

  void ring() noexcept {
    count_.fetch_add(1, std::memory_order_seq_cst);
    if (has_waiters()) futex_wake_all(count_, kShared);
  }

  /// True while some thread sleeps (or is about to) in wait().
  bool has_waiters() const noexcept {
    return waiters_.load(std::memory_order_seq_cst) != 0;
  }

  /// Sleeps until the count moves past \p ticket or \p timeout passes.
  void wait(std::uint32_t ticket, std::chrono::nanoseconds timeout) noexcept {
    if (timeout <= std::chrono::nanoseconds::zero()) return;
    // Announce before the last check: either ring() sees the waiter and
    // wakes, or this load sees its count — the futex word re-checks the
    // same value in the kernel.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (count_.load(std::memory_order_seq_cst) == ticket) {
      futex_wait(count_, ticket, timeout, kShared);
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

/// The in-process doorbell a SourceMux hands its sources.
using Doorbell = BasicDoorbell<false>;

class SampleBufferPool;

/// One inbound message plus the reply channel it arrived on (null for
/// fire-and-forget emitters). The mux stamps `source` so verdict
/// routing and per-source accounting survive the fan-in. `pool` is the
/// buffer pool the message's sample vector was acquired from (null =
/// the process-global pool): the consumer returns the vector there
/// after dispatch, so each server's buffers recycle without crossing a
/// shared global free list. Provenance rides the Envelope, NOT the
/// Message — Message stays a pure wire value (its defaulted equality
/// is load-bearing in round-trip tests).
struct Envelope {
  Message message;
  std::shared_ptr<VerdictSink> reply;
  SourceId source = 0;
  SampleBufferPool* pool = nullptr;
};

/// Transport-level health counters a source exposes to the mux/stats
/// scrape. All monotonic. Transports without a concept (e.g. the
/// in-process ring has no sequence numbers) leave the field at 0.
struct TransportCounters {
  std::uint64_t frames = 0;        ///< messages decoded and enqueued
  std::uint64_t decode_errors = 0; ///< corrupt frames/datagrams/streams
  std::uint64_t drops = 0;         ///< messages shed (lossy mode / full queue)
  std::uint64_t gaps = 0;          ///< sequence holes observed (lossy links)
  std::uint64_t blocked = 0;       ///< producer back-pressure events
  /// Control-frame retransmissions observed: on an emitter, kOpenJob/
  /// kCloseJob copies it re-sent while unacked; on a server, duplicate
  /// control frames it absorbed from such an emitter.
  std::uint64_t retransmits = 0;
};

/// Consumer side of a transport: the pipeline polls this.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Waits up to \p timeout for inbound messages and appends them to
  /// \p out (bounded by the transport's internal batch size). Returns
  /// false once the source is exhausted — closed AND fully drained —
  /// after which no more messages will ever appear. A true return with
  /// an empty \p out is a normal timeout.
  virtual bool poll(std::vector<Envelope>& out,
                    std::chrono::milliseconds timeout) = 0;

  /// Asks the source to ring \p doorbell whenever it enqueues a message
  /// or closes, from then on (nullptr detaches; once this returns, the
  /// source never touches the old doorbell again). Returns false when
  /// the source cannot ring — the default, kept for wrappers that do
  /// not forward it — and the mux then falls back to a short wait tick
  /// while that source is live.
  virtual bool attach_doorbell(Doorbell* /*doorbell*/) { return false; }

  /// Transport-level loss/back-pressure counters (see TransportCounters).
  /// Safe from any thread; default is all-zero.
  virtual TransportCounters transport_counters() const { return {}; }

  /// The source-owned sample buffer pool, when the transport has one
  /// (servers that decode frames); nullptr for sources that borrow the
  /// process-global pool. The mux scrapes hit/miss/discard stats off it
  /// per source.
  virtual const SampleBufferPool* buffer_pool() const { return nullptr; }
};

/// Producer side of a transport: samplers/replayers send through this.
class MessageSender {
 public:
  virtual ~MessageSender() = default;

  /// Delivers one message. Blocking is the back-pressure mechanism: a
  /// full transport stalls the producer, never drops silently.
  virtual void send(Message message) = 0;
};

}  // namespace efd::ingest
