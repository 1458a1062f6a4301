#pragma once
/// \file ring_buffer.hpp
/// \brief Fixed-capacity ring buffer for streaming samples.
///
/// The online recognizer only ever needs the most recent two minutes of a
/// stream, so per-stream storage is bounded regardless of job length —
/// one of the paper's key operational advantages over whole-execution
/// monitoring approaches. The ingest layer reuses the same buffer as the
/// bounded storage of its in-process transport (ingest/ring_transport.hpp),
/// consuming via pop_front instead of letting push evict.
///
/// Storage is lazy: slots are appended as pushes first reach them (until
/// the ring wraps), and an emptied ring restarts at slot 0, so memory
/// tracks peak occupancy rather than capacity — a 4096-slot transport
/// queue that never holds more than a few messages costs a few slots.
///
/// Not internally synchronized; wrap in external locking for concurrent
/// use.

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace efd::ldms {

template <typename T>
class RingBuffer {
 public:
  /// \param capacity maximum retained elements; must be > 0.
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer capacity must be > 0");
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }

  /// Total elements ever pushed (indexes the stream's absolute position).
  std::size_t pushed() const noexcept { return pushed_; }

  /// Appends, evicting the oldest element when full. By-value so one
  /// body serves both copy and move callers.
  void push(T value) {
    // Until the ring first wraps, head_ only ever reaches the end of
    // storage_ (never beyond), so growing there keeps every index valid.
    if (head_ == storage_.size()) {
      storage_.push_back(std::move(value));
    } else {
      storage_[head_] = std::move(value);
    }
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
    ++pushed_;
  }

  /// Moves the oldest retained element into \p out. Returns false (and
  /// leaves \p out untouched) when empty — the queue-style consumption
  /// the ingest transport uses instead of push-time eviction.
  bool pop_front(T& out) {
    if (size_ == 0) return false;
    const std::size_t oldest = (head_ + capacity_ - size_) % capacity_;
    out = std::move(storage_[oldest]);
    // Emptied: restart at slot 0 so the next pushes reuse the slots
    // already built instead of growing storage toward capacity.
    if (--size_ == 0) head_ = 0;
    return true;
  }

  /// Element \p i positions from the oldest retained element (0 = oldest).
  /// Precondition: i < size().
  const T& operator[](std::size_t i) const {
    const std::size_t oldest = (head_ + capacity_ - size_) % capacity_;
    return storage_[(oldest + i) % capacity_];
  }

  /// Copies the retained window, oldest first.
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

  void clear() noexcept {
    size_ = 0;
    head_ = 0;
    pushed_ = 0;
  }

 private:
  std::vector<T> storage_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t pushed_ = 0;
};

}  // namespace efd::ldms
