#include "ingest/source_mux.hpp"

#include <algorithm>
#include <utility>

namespace efd::ingest {

namespace {

/// Longest doorbell wait while some live source cannot ring: its frames
/// are only seen by a sweep, so the mux must come back for them.
constexpr std::chrono::milliseconds kUnringableTick{1};

}  // namespace

SourceMux::~SourceMux() {
  std::lock_guard lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->rings) entry->source->attach_doorbell(nullptr);
  }
}

SourceId SourceMux::add_source(std::string name, SampleSource& source) {
  std::lock_guard lock(mutex_);
  auto entry = std::make_shared<Entry>();
  entry->id = static_cast<SourceId>(entries_.size());
  // Names key the snapshot cursors: a duplicate (e.g. `--listen tcp:0`
  // twice) would make seed_cursor misattribute one source's restored
  // count to the other. Disambiguate deterministically by id, so the
  // same command line re-derives the same names on restart.
  const auto taken = [this](const std::string& candidate) {
    for (const auto& existing : entries_) {
      if (existing->name == candidate) return true;
    }
    return false;
  };
  if (taken(name)) {
    std::string candidate;
    for (SourceId suffix = entry->id; ; ++suffix) {
      candidate = name + "#" + std::to_string(suffix);
      if (!taken(candidate)) break;
    }
    name = std::move(candidate);
  }
  entry->name = std::move(name);
  entry->source = &source;
  entry->rings = source.attach_doorbell(&doorbell_);
  entries_.push_back(std::move(entry));
  generation_.fetch_add(1, std::memory_order_release);
  return entries_.back()->id;
}

std::size_t SourceMux::source_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::size_t SourceMux::poll_entry(Entry& entry, std::vector<Envelope>& out) {
  const std::size_t before = out.size();
  const bool live = entry.source->poll(out, std::chrono::milliseconds(0));
  for (std::size_t i = before; i < out.size(); ++i) {
    out[i].source = entry.id;
    entry.envelopes.fetch_add(1, std::memory_order_relaxed);
    entry.samples.fetch_add(out[i].message.samples.size(),
                            std::memory_order_relaxed);
  }
  if (!live) {
    // Retired: its final batch (if any) was delivered above; the source
    // contract guarantees nothing more will ever appear.
    entry.exhausted.store(true, std::memory_order_release);
  }
  return out.size() - before;
}

SourceMux::Sweep SourceMux::sweep(const std::vector<Entry*>& entries,
                                  std::vector<Envelope>& out) {
  Sweep result;
  // Rotate the starting index so a chatty low-id source cannot
  // structurally starve the others of the "first look".
  const std::size_t start = rotate_++;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Entry& entry = *entries[(start + i) % entries.size()];
    if (entry.exhausted.load(std::memory_order_acquire)) continue;
    result.appended += poll_entry(entry, out);
    if (!entry.exhausted.load(std::memory_order_relaxed)) {
      result.any_live = true;
      result.all_ring &= entry.rings;
    }
  }
  return result;
}

bool SourceMux::poll(std::vector<Envelope>& out,
                     std::chrono::milliseconds timeout) {
  // Refresh the consumer-thread entry cache only when a registration
  // happened — the hot loop polls with zero allocation/refcounting.
  if (cached_generation_ != generation_.load(std::memory_order_acquire)) {
    std::lock_guard lock(mutex_);
    cached_entries_.clear();
    for (const auto& entry : entries_) cached_entries_.push_back(entry.get());
    cached_generation_ = generation_.load(std::memory_order_relaxed);
  }
  const std::vector<Entry*>& entries = cached_entries_;
  if (entries.empty()) return false;  // nothing registered: exhausted

  // The ticket predates the sweep, so a source that enqueues (or
  // closes) after its sweep slot rings past it and the wait below
  // returns at once instead of sleeping through the frame.
  const std::uint32_t ticket = doorbell_.ticket();
  const Sweep first = sweep(entries, out);
  if (first.appended > 0) return true;
  if (!first.any_live) return false;  // every source retired

  // Nothing ready anywhere: one wait serves every source.
  doorbell_.wait(ticket, first.all_ring ? timeout
                                        : std::min(timeout, kUnringableTick));
  const Sweep second = sweep(entries, out);
  return second.appended > 0 || second.any_live;
}

void SourceMux::note_verdict(SourceId id) {
  std::lock_guard lock(mutex_);
  if (id < entries_.size()) {
    entries_[id]->verdicts.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SourceMux::seed_cursor(const std::string& name, std::uint64_t cursor) {
  std::lock_guard lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->name == name) {
      entry->restored_cursor.store(cursor, std::memory_order_relaxed);
      entry->envelopes.fetch_add(cursor, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

TransportCounters SourceMux::transport_counters() const {
  TransportCounters total;
  for (const SourceMuxStats& source : stats()) {
    total.frames += source.transport.frames;
    total.decode_errors += source.transport.decode_errors;
    total.drops += source.transport.drops;
    total.gaps += source.transport.gaps;
    total.blocked += source.transport.blocked;
    total.retransmits += source.transport.retransmits;
  }
  return total;
}

std::vector<SourceMuxStats> SourceMux::stats() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard lock(mutex_);
    entries = entries_;
  }
  std::vector<SourceMuxStats> out;
  out.reserve(entries.size());
  for (const auto& entry : entries) {
    SourceMuxStats stats;
    stats.id = entry->id;
    stats.name = entry->name;
    stats.envelopes = entry->envelopes.load(std::memory_order_relaxed);
    stats.samples = entry->samples.load(std::memory_order_relaxed);
    stats.verdicts = entry->verdicts.load(std::memory_order_relaxed);
    stats.restored_cursor =
        entry->restored_cursor.load(std::memory_order_relaxed);
    stats.exhausted = entry->exhausted.load(std::memory_order_acquire);
    stats.transport = entry->source->transport_counters();
    if (const SampleBufferPool* pool = entry->source->buffer_pool()) {
      stats.pool = pool->stats();
      stats.has_pool = true;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace efd::ingest
