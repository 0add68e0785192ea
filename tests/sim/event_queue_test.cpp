#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sqos::sim {
namespace {

EventId push_at(EventQueue& q, std::int64_t t_us) {
  return q.push(SimTime::micros(t_us), [] {});
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  push_at(q, 30);
  push_at(q, 10);
  push_at(q, 20);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 10);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 20);
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 30);
  EXPECT_FALSE(q.pop(e));
}

TEST(EventQueue, TiesBreakByPushOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 3; ++i) {
    q.push(SimTime::micros(10), [i, &fired] { fired.push_back(i); });
  }
  Event e;
  while (q.pop(e)) e.fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PopRunsTheScheduledClosure) {
  EventQueue q;
  int hits = 0;
  q.push(SimTime::micros(5), [&hits] { ++hits; });
  Event e;
  ASSERT_TRUE(q.pop(e));
  e.fn();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  const EventId first = push_at(q, 10);
  push_at(q, 20);
  EXPECT_TRUE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 20);
  EXPECT_FALSE(q.pop(e));
}

TEST(EventQueue, CancelUnknownReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{99}));
  const EventId id = push_at(q, 10);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_FALSE(q.cancel(id));  // already popped
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = push_at(q, 10);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = push_at(q, 10);
  const EventId second = push_at(q, 20);
  EXPECT_EQ(q.next_time().as_micros(), 10);
  q.cancel(first);
  EXPECT_EQ(q.next_time().as_micros(), 20);
  q.cancel(second);
  EXPECT_EQ(q.next_time(), SimTime::max());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PeekNextTimeMatchesNextTime) {
  EventQueue q;
  EXPECT_EQ(q.peek_next_time(), SimTime::max());
  push_at(q, 40);
  push_at(q, 15);
  EXPECT_EQ(q.peek_next_time(), q.next_time());
  EXPECT_EQ(q.peek_next_time().as_micros(), 15);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  push_at(q, 1);
  const EventId second = push_at(q, 2);
  EXPECT_EQ(q.size(), 2u);
  q.cancel(second);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RecycledSlotRejectsStaleId) {
  EventQueue q;
  const EventId stale = push_at(q, 10);
  Event e;
  ASSERT_TRUE(q.pop(e));  // releases the slot
  // The next push reuses the slot with a bumped generation.
  const EventId fresh = push_at(q, 20);
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.cancel(stale));  // must not cancel the new occupant
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(fresh));
}

TEST(EventQueue, IdsAreNeverZero) {
  EventQueue q;
  for (int round = 0; round < 3; ++round) {
    const EventId id = push_at(q, round);
    EXPECT_NE(to_underlying(id), 0u);
    Event e;
    ASSERT_TRUE(q.pop(e));
  }
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    push_at(q, static_cast<std::int64_t>((i * 7919) % 1000));
  }
  Event e;
  SimTime last = SimTime::zero();
  std::size_t popped = 0;
  while (q.pop(e)) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u);
}

TEST(EventQueue, IdleQueuePeekTracksCancelsOfItsEarliestEvent) {
  // Far-future pushes into an empty queue wait in buckets; next_time() must
  // still name the earliest live one after it is cancelled.
  EventQueue q;
  const EventId twenty = push_at(q, 20'000'000);
  const EventId five = push_at(q, 5'000'000);
  push_at(q, 10'000'000);
  EXPECT_EQ(q.next_time().as_micros(), 5'000'000);
  EXPECT_TRUE(q.cancel(five));
  EXPECT_EQ(q.next_time().as_micros(), 10'000'000);
  EXPECT_TRUE(q.cancel(twenty));
  EXPECT_EQ(q.next_time().as_micros(), 10'000'000);
  Event e;
  ASSERT_TRUE(q.pop(e));
  EXPECT_EQ(e.time.as_micros(), 10'000'000);
  EXPECT_FALSE(q.pop(e));
}

TEST(EventQueue, CancelStormLeavesQueueConsistent) {
  EventQueue q;
  std::vector<EventId> ids;
  for (std::int64_t i = 0; i < 200; ++i) ids.push_back(push_at(q, i));
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 100u);
  Event e;
  std::size_t popped = 0;
  SimTime last = SimTime::zero();
  while (q.pop(e)) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, 100u);
}

}  // namespace
}  // namespace sqos::sim
