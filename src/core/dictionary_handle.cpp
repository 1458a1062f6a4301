#include "core/dictionary_handle.hpp"

#include <utility>

namespace efd::core {

DictionaryHandle::DictionaryHandle(ShardedDictionary initial)
    : current_(std::make_shared<Epoch>(1, std::move(initial))), version_(1) {}

std::uint64_t DictionaryHandle::swap(ShardedDictionary next) {
  // Writers serialize (swaps are rare — a retrain cadence, not a hot
  // path) so versions are dense and monotone. The successor (and its
  // probe index) is built before current_mutex_ is taken, so readers
  // never wait on a compile.
  std::lock_guard lock(writer_mutex_);
  const std::uint64_t version = acquire()->version + 1;
  auto epoch = std::make_shared<Epoch>(version, std::move(next));
  {
    std::lock_guard publish(current_mutex_);
    current_.swap(epoch);
  }
  version_.store(version, std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

void DictionaryHandle::reset(std::shared_ptr<Epoch> epoch,
                             std::uint64_t swap_count) {
  std::lock_guard lock(writer_mutex_);
  const std::uint64_t version = epoch->version;
  {
    std::lock_guard publish(current_mutex_);
    current_.swap(epoch);
  }
  version_.store(version, std::memory_order_release);
  swaps_.store(swap_count, std::memory_order_relaxed);
}

}  // namespace efd::core
