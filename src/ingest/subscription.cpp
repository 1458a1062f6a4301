#include "ingest/subscription.hpp"

#include <algorithm>

namespace efd::ingest {

SubscriptionHub::SubscriptionHub(std::size_t queue_capacity)
    : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SubscriptionHub::~SubscriptionHub() { stop(); }

void SubscriptionHub::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::uint64_t SubscriptionHub::subscribe(std::weak_ptr<VerdictSink> sink,
                                         WireSubscribe filters) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto subscriber = std::make_unique<Subscriber>();
  subscriber->id = next_id_++;
  subscriber->sink = std::move(sink);
  subscriber->filters = std::move(filters);
  const std::uint64_t id = subscriber->id;
  subscribers_.push_back(std::move(subscriber));
  subscriber_count_.store(subscribers_.size(), std::memory_order_relaxed);
  return id;
}

bool SubscriptionHub::matches(const Subscriber& subscriber,
                              const Message& event,
                              const std::string& application) {
  const WireSubscribe& filters = subscriber.filters;
  if (!filters.applications.empty() &&
      std::find(filters.applications.begin(), filters.applications.end(),
                application) == filters.applications.end()) {
    return false;
  }
  if (!filters.sources.empty() &&
      std::find(filters.sources.begin(), filters.sources.end(),
                event.verdict_event.source) == filters.sources.end()) {
    return false;
  }
  return true;
}

void SubscriptionHub::publish(const Message& event,
                              const std::string& application) {
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    for (auto& subscriber : subscribers_) {
      if (subscriber->dead) continue;
      if (subscriber->sink.expired()) {
        subscriber->dead = true;
        continue;
      }
      if (!matches(*subscriber, event, application)) continue;
      if (subscriber->queue.size() >= queue_capacity_) {
        // Slow consumer: shed the event, never block the flush path.
        ++subscriber->dropped;
        continue;
      }
      subscriber->queue.push_back(event);
      queued = true;
    }
  }
  if (queued) wake_.notify_one();
}

void SubscriptionHub::dispatch_loop() {
  struct Delivery {
    std::shared_ptr<VerdictSink> sink;
    std::vector<Message> events;
  };

  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] {
      if (stopping_) return true;
      for (const auto& subscriber : subscribers_) {
        if (!subscriber->queue.empty()) return true;
      }
      return false;
    });
    if (stopping_) return;

    // Swap every pending queue out under the lock, then deliver with the
    // lock released — sink writes may block (TCP send timeout) and must
    // not stall publish(). Events count as delivered when taken off the
    // queue, under the lock, so a stats() scrape never shows fewer
    // delivered than the sink may already hold.
    std::vector<Delivery> deliveries;
    for (auto& subscriber : subscribers_) {
      if (subscriber->queue.empty()) continue;
      auto sink = subscriber->sink.lock();
      if (!sink) {
        subscriber->dead = true;
        subscriber->queue.clear();
        continue;
      }
      Delivery delivery;
      delivery.sink = std::move(sink);
      delivery.events.assign(
          std::make_move_iterator(subscriber->queue.begin()),
          std::make_move_iterator(subscriber->queue.end()));
      subscriber->queue.clear();
      subscriber->delivered += delivery.events.size();
      deliveries.push_back(std::move(delivery));
    }
    std::erase_if(subscribers_,
                  [](const std::unique_ptr<Subscriber>& subscriber) {
                    return subscriber->dead;
                  });
    subscriber_count_.store(subscribers_.size(), std::memory_order_relaxed);

    lock.unlock();
    for (Delivery& delivery : deliveries) {
      delivery.sink->deliver_many(
          std::span<const Message>(delivery.events));
    }
    lock.lock();
  }
}

std::vector<SubscriptionHub::SubscriberStats> SubscriptionHub::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SubscriberStats> out;
  out.reserve(subscribers_.size());
  for (const auto& subscriber : subscribers_) {
    out.push_back(SubscriberStats{subscriber->id, subscriber->delivered,
                                  subscriber->dropped,
                                  subscriber->queue.size()});
  }
  return out;
}

}  // namespace efd::ingest
