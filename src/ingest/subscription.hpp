#pragma once

// Verdict pub/sub hub.  Peers subscribe over the wire (kSubscribe, with
// optional per-application / per-source filters) and receive a
// kVerdictEvent copy of every matching verdict the pipeline flushes.
//
// Contract: publish() NEVER blocks.  Each subscriber owns a bounded
// queue; when it is full the event is dropped and counted against that
// subscriber.  A single dispatcher thread drains the queues and performs
// the (potentially blocking) sink writes, so one stalled TCP consumer
// delays other subscribers' delivery at worst, and the verdict flush
// path — which runs on the pipeline's ingest thread — not at all.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ingest/transport.hpp"
#include "ingest/wire_format.hpp"

namespace efd::ingest {

class SubscriptionHub {
 public:
  /// Default per-subscriber queue bound (events, not bytes).
  static constexpr std::size_t kDefaultQueueCapacity = 1024;

  struct SubscriberStats {
    std::uint64_t id = 0;
    std::uint64_t delivered = 0;  ///< events taken off the queue for the sink
    std::uint64_t dropped = 0;    ///< events shed on a full queue
    std::uint64_t queued = 0;     ///< current queue depth
  };

  explicit SubscriptionHub(
      std::size_t queue_capacity = kDefaultQueueCapacity);
  ~SubscriptionHub();

  SubscriptionHub(const SubscriptionHub&) = delete;
  SubscriptionHub& operator=(const SubscriptionHub&) = delete;

  /// Registers a subscriber; the sink is held weakly (a dead connection
  /// is reaped on the next publish/dispatch touching it). Returns the
  /// subscriber id echoed in the kSubscribeAck.
  std::uint64_t subscribe(std::weak_ptr<VerdictSink> sink,
                          WireSubscribe filters);

  /// Fans one verdict event out to every matching live subscriber's
  /// queue. Non-blocking: full queues drop-and-count. `application` is
  /// the verdict's predicted application (matched against the
  /// subscription's application filters).
  void publish(const Message& event, const std::string& application);

  /// True if at least one subscriber is registered (cheap pre-check so
  /// the flush path skips event construction entirely with no peers).
  bool has_subscribers() const noexcept {
    return subscriber_count_.load(std::memory_order_relaxed) > 0;
  }

  std::vector<SubscriberStats> stats() const;

  /// Stops the dispatcher thread; further publishes are dropped.
  void stop();

 private:
  struct Subscriber {
    std::uint64_t id = 0;
    std::weak_ptr<VerdictSink> sink;
    WireSubscribe filters;
    std::deque<Message> queue;  // guarded by hub mutex_
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    bool dead = false;
  };

  void dispatch_loop();
  static bool matches(const Subscriber& subscriber, const Message& event,
                      const std::string& application);

  const std::size_t queue_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::size_t> subscriber_count_{0};
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace efd::ingest
