#pragma once
/// \file dictionary_handle.hpp
/// \brief Versioned, hot-swappable holder of the active dictionary.
///
/// A production service must take a retrained dictionary live without
/// dropping the streams it is currently recognizing ("dictionary updates
/// while serving" — the ROADMAP's durable-serving gap). DictionaryHandle
/// is the RCU-snapshot publication point that makes that safe, the same
/// pattern ApplicationRegistry uses for application epoch order:
///
///  - The active dictionary lives inside an immutable-identity Epoch
///    (its ShardedDictionary stays internally synchronized, so learn()
///    keeps inserting into the active epoch). Readers pin an epoch once
///    per stream via acquire() — one shared_ptr copy under a short
///    mutex — and then touch only the pinned epoch for the stream's
///    whole life: the per-sample recognition hot path never revisits
///    the handle.
///  - swap() builds the successor Epoch (version + 1) outside that mutex
///    and publishes it with one pointer swap. In-flight streams keep
///    recognizing against the epoch they pinned at open; streams opened
///    after the swap see the new one. No stream ever observes a
///    half-swapped dictionary.
///  - Reclamation is reference-counted: a superseded epoch is freed the
///    moment the last in-flight stream pinned to it finishes — unlike
///    ApplicationRegistry's retire list, because dictionaries are far
///    too big to retain one per swap for the handle's lifetime.
///
/// version()/swap_count() are lock-free atomic reads (monitoring/stats
/// material). Thread-safety: all methods are safe to call concurrently;
/// moving a handle while other threads use it is not.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/sharded_dictionary.hpp"

namespace efd::core {

/// Publication point for the active dictionary epoch.
class DictionaryHandle {
 public:
  /// One published dictionary generation. The version is immutable; the
  /// dictionary itself is internally synchronized (online learning keeps
  /// inserting into the active epoch while streams recognize against it).
  struct Epoch {
    /// Construction is the publication point for the dictionary's derived
    /// read structures: the flat probe index (dictionary_index.hpp) is
    /// compiled here, so every path that publishes an epoch — initial
    /// handle construction (train completion), swap(), and the snapshot
    /// restorer's pre-built epoch for reset() — atomically ships
    /// structure + index together. In-flight streams keep their pinned
    /// epoch's index; EFD_FLAT_INDEX=off skips compilation.
    Epoch(std::uint64_t version, ShardedDictionary dictionary)
        : version(version), dictionary(std::move(dictionary)) {
      this->dictionary.compile_probe_index();
    }

    const std::uint64_t version;
    ShardedDictionary dictionary;
  };

  /// The initial dictionary becomes epoch 1.
  explicit DictionaryHandle(ShardedDictionary initial);

  DictionaryHandle(const DictionaryHandle&) = delete;
  DictionaryHandle& operator=(const DictionaryHandle&) = delete;

  /// Pins the active epoch: the returned pointer (and the dictionary
  /// inside it) stays valid until the caller drops it, across any number
  /// of concurrent swaps. Never waits on an epoch being built.
  std::shared_ptr<Epoch> acquire() const {
    std::lock_guard lock(current_mutex_);
    return current_;
  }

  /// Version of the active epoch (starts at 1). Lock-free.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Number of swap()/reset() publications since construction. Lock-free.
  std::uint64_t swap_count() const noexcept {
    return swaps_.load(std::memory_order_relaxed);
  }

  /// Atomically publishes \p next as the new active epoch (version + 1)
  /// and returns that new version. In-flight pins keep their old epoch.
  std::uint64_t swap(ShardedDictionary next);

  /// Restore path: installs a pre-built epoch (explicit version) with an
  /// explicit swap-count — snapshot continuity across restarts. Taking
  /// the epoch ready-made lets the restorer pin streams to it BEFORE
  /// publication, so a failed restore never half-installs anything.
  void reset(std::shared_ptr<Epoch> epoch, std::uint64_t swap_count);

 private:
  /// Guards current_. Not std::atomic<std::shared_ptr>: libstdc++ 12's
  /// load() releases its internal lock with relaxed order, so a later
  /// store races the reader's pointer read (ThreadSanitizer reports it).
  mutable std::mutex current_mutex_;
  std::shared_ptr<Epoch> current_;
  std::atomic<std::uint64_t> version_;
  std::atomic<std::uint64_t> swaps_{0};
  /// Serializes swap()/reset() so versions stay dense and monotone;
  /// readers never take it (ApplicationRegistry's writer discipline).
  std::mutex writer_mutex_;
};

}  // namespace efd::core
