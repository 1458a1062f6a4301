/// \file test_ring_buffer.cpp
/// \brief Unit tests for ldms::RingBuffer: capacity handling, overflow
/// eviction, wrap-around indexing, queue-style pop_front consumption,
/// the pushed() stream-position counter, and lazy storage (slots built
/// as occupancy first reaches them, never up front).

#include "ldms/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using efd::ldms::RingBuffer;

/// Counts live instances, so a test can see how many slots a ring built.
struct Counted {
  static inline long live = 0;
  int value = 0;

  explicit Counted(int v = 0) : value(v) { ++live; }
  Counted(const Counted& other) : value(other.value) { ++live; }
  Counted(Counted&& other) noexcept : value(other.value) { ++live; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { --live; }
};

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, FillsToCapacityThenEvictsOldest) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  EXPECT_EQ(ring.capacity(), 3u);

  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_FALSE(ring.full());
  ring.push(3);
  EXPECT_TRUE(ring.full());

  // Overflow: 1 (the oldest) is evicted, retained window slides.
  ring.push(4);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0], 2);
  EXPECT_EQ(ring[1], 3);
  EXPECT_EQ(ring[2], 4);
  EXPECT_EQ(ring.pushed(), 4u);
}

TEST(RingBuffer, CapacityOneKeepsOnlyTheNewest) {
  RingBuffer<int> ring(1);
  ring.push(10);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring[0], 10);
  ring.push(20);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0], 20);
  EXPECT_EQ(ring.pushed(), 2u);
}

TEST(RingBuffer, WrapAroundIndexingStaysOldestFirst) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 11; ++i) ring.push(i);  // retained: 7 8 9 10
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(7 + i));
  }
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7, 8, 9, 10}));
  EXPECT_EQ(ring.pushed(), 11u);
}

TEST(RingBuffer, PopFrontConsumesOldestFirst) {
  RingBuffer<std::string> ring(3);
  std::string out;
  EXPECT_FALSE(ring.pop_front(out));  // empty: untouched
  EXPECT_TRUE(out.empty());

  ring.push(std::string("a"));
  ring.push(std::string("b"));
  ring.push(std::string("c"));
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(out, "a");
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(out, "b");
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_FALSE(ring.full());

  // Space freed by pop_front is reusable without eviction.
  ring.push(std::string("d"));
  ring.push(std::string("e"));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.snapshot(), (std::vector<std::string>{"c", "d", "e"}));
}

TEST(RingBuffer, InterleavedPushPopWrapsCorrectly) {
  RingBuffer<int> ring(3);
  int out = -1;
  int next = 0;
  // A mixed push/pop pattern that empties the ring every round (the
  // head restarts at slot 0); FIFO order must hold throughout.
  int expected = 0;
  for (int round = 0; round < 10; ++round) {
    ring.push(next++);
    ring.push(next++);
    ASSERT_TRUE(ring.pop_front(out));
    EXPECT_EQ(out, expected++);
    ASSERT_TRUE(ring.pop_front(out));
    EXPECT_EQ(out, expected++);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 20u);
}

TEST(RingBuffer, PopAfterOverflowSkipsEvictedElements) {
  RingBuffer<int> ring(2);
  ring.push(1);
  ring.push(2);
  ring.push(3);  // evicts 1
  int out = 0;
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(ring.pop_front(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(ring.pop_front(out));
}

TEST(RingBuffer, LazyGrowthWrapsWithoutLosingOrder) {
  RingBuffer<int> ring(4);
  int out = -1;
  ring.push(0);
  ring.push(1);
  ASSERT_TRUE(ring.pop_front(out));  // slot 0 freed; the ring is not empty
  EXPECT_EQ(out, 0);
  ring.push(2);
  ring.push(3);  // storage grows to all 4 slots; the head wraps to 0
  ring.push(4);  // reuses slot 0
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{1, 2, 3, 4}));
  ring.push(5);  // evicts 1
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{2, 3, 4, 5}));
  for (int expected = 2; expected <= 5; ++expected) {
    ASSERT_TRUE(ring.pop_front(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, StorageTracksPeakOccupancyNotCapacity) {
  ASSERT_EQ(Counted::live, 0);
  {
    RingBuffer<Counted> ring(1u << 20);
    EXPECT_EQ(Counted::live, 0);  // nothing is built up front

    Counted out;
    int expected = 0;
    int out_of_order = 0;
    for (int cycle = 0; cycle < 1'000'000; ++cycle) {
      ring.push(Counted(2 * cycle));
      ring.push(Counted(2 * cycle + 1));
      for (int i = 0; i < 2; ++i) {
        if (!ring.pop_front(out) || out.value != expected) ++out_of_order;
        ++expected;
      }
    }
    EXPECT_EQ(out_of_order, 0);
    EXPECT_TRUE(ring.empty());
    // Occupancy never exceeded 2, so neither did the slots: every live
    // instance but `out` is ring storage.
    EXPECT_LE(Counted::live - 1, 2);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(RingBuffer, ClearResetsRetainedWindowAndStreamPosition) {
  RingBuffer<int> ring(2);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 0u);
  ring.push(7);
  EXPECT_EQ(ring[0], 7);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7}));
}

}  // namespace
