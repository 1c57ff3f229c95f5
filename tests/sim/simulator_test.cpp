#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace aria::sim {
namespace {

using namespace aria::literals;

TEST(Simulator, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30_s, [&] { order.push_back(3); });
  sim.schedule_after(10_s, [&] { order.push_back(1); });
  sim.schedule_after(20_s, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameInstantFiresInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5_s, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(42_s, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + 42_s);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 42_s);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(-(5_s), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(Simulator, PastAbsoluteTimeClampsToNow) {
  Simulator sim;
  sim.schedule_after(10_s, [] {});
  sim.run();
  bool fired = false;
  sim.schedule_at(TimePoint::origin() + 1_s, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 10_s);  // never goes backward
}

TEST(Simulator, EventsScheduledDuringEventsFire) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1_s, recurse);
  };
  sim.schedule_after(1_s, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 5_s);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_after(10_s, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_after(1_s, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_after(10_s, [&] { fired.push_back(1); });
  sim.schedule_after(20_s, [&] { fired.push_back(2); });
  sim.schedule_after(30_s, [&] { fired.push_back(3); });
  sim.run_until(TimePoint::origin() + 20_s);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // deadline event fires
  EXPECT_EQ(sim.now(), TimePoint::origin() + 20_s);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineWhenQueueEmpty) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + 1_h);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 1_h);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(0_s, 10_s, [&] { ++count; });
  sim.run_until(TimePoint::origin() + 55_s);
  EXPECT_EQ(count, 6);  // t = 0, 10, 20, 30, 40, 50
}

TEST(Simulator, PeriodicPhaseOffset) {
  Simulator sim;
  std::vector<TimePoint> at;
  sim.schedule_periodic(3_s, 10_s, [&] { at.push_back(sim.now()); });
  sim.run_until(TimePoint::origin() + 25_s);
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], TimePoint::origin() + 3_s);
  EXPECT_EQ(at[1], TimePoint::origin() + 13_s);
  EXPECT_EQ(at[2], TimePoint::origin() + 23_s);
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator sim;
  int count = 0;
  EventHandle h = sim.schedule_periodic(0_s, 10_s, [&] { ++count; });
  sim.run_until(TimePoint::origin() + 25_s);
  EXPECT_EQ(count, 3);
  h.cancel();
  sim.run_until(TimePoint::origin() + 100_s);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCancelFromInsideCallback) {
  Simulator sim;
  int count = 0;
  EventHandle h;
  h = sim.schedule_periodic(0_s, 10_s, [&] {
    if (++count == 3) h.cancel();
  });
  sim.run_until(TimePoint::origin() + 1_h);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_after(1_s, [&] { ++count; });
  sim.schedule_after(2_s, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StopRequestEndsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_after(Duration::seconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(Simulator, FiredEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(1_s, [] {});
  sim.run();
  EXPECT_EQ(sim.fired_events(), 5u);
}

TEST(Simulator, CancelDuringDispatchOfEarlierEvent) {
  // An event firing at t may cancel another event still queued — including
  // one scheduled for the very same instant.
  Simulator sim;
  bool later_fired = false;
  bool same_instant_fired = false;
  EventHandle later = sim.schedule_after(20_s, [&] { later_fired = true; });
  sim.schedule_after(10_s, [&] { later.cancel(); });
  EventHandle same;
  sim.schedule_after(30_s, [&] { same.cancel(); });
  same = sim.schedule_after(30_s, [&] { same_instant_fired = true; });
  sim.run();
  EXPECT_FALSE(later_fired);
  EXPECT_FALSE(same_instant_fired);
  EXPECT_EQ(sim.fired_events(), 2u);
}

TEST(Simulator, CancelInsideOwnCallbackIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_after(1_s, [&] {
    ++fired;
    h.cancel();  // already firing: must not corrupt the slot
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  // The slot is recyclable afterwards.
  bool again = false;
  sim.schedule_after(1_s, [&] { again = true; });
  sim.run();
  EXPECT_TRUE(again);
}

TEST(Simulator, PeriodicSelfCancelFreesSlotForReuse) {
  Simulator sim;
  int count = 0;
  EventHandle h;
  h = sim.schedule_periodic(0_s, 1_s, [&] {
    if (++count == 2) h.cancel();
  });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(h.pending());
  const std::size_t slots = sim.slab_slots();
  // A new event must recycle the freed slot, not grow the slab.
  sim.schedule_after(1_s, [] {});
  EXPECT_EQ(sim.slab_slots(), slots);
  sim.run();
}

TEST(Simulator, CancelledPendingCountsAndLazySkip) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_after(Duration::seconds(i + 1), [] {}));
  }
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  for (int i = 0; i < 4; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sim.cancelled_pending(), 4u);  // below threshold: no compaction
  EXPECT_EQ(sim.compactions(), 0u);
  EXPECT_EQ(sim.pending_events(), 6u);  // live events only
  sim.run();
  EXPECT_EQ(sim.fired_events(), 6u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);  // dead entries skipped on pop
}

TEST(Simulator, CompactionTriggersOnMassCancel) {
  Simulator sim;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 300;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(sim.schedule_after(Duration::seconds(i + 1), [] {}));
  }
  // Cancel all but every 10th: dead entries dominate -> heap compaction.
  int live = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 10 == 0) {
      ++live;
      continue;
    }
    handles[static_cast<std::size_t>(i)].cancel();
  }
  EXPECT_GE(sim.compactions(), 1u);
  EXPECT_LT(sim.cancelled_pending(), 64u);  // swept below the threshold
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(live));
  sim.run();
  EXPECT_EQ(sim.fired_events(), static_cast<std::uint64_t>(live));
}

TEST(Simulator, HandleInertAfterGenerationBump) {
  Simulator sim;
  bool old_fired = false;
  bool new_fired = false;
  EventHandle old = sim.schedule_after(10_s, [&] { old_fired = true; });
  old.cancel();
  // The freed slot is recycled by the next schedule; the stale handle's
  // generation no longer matches, so it can neither observe nor cancel the
  // new event.
  EventHandle fresh = sim.schedule_after(5_s, [&] { new_fired = true; });
  EXPECT_EQ(sim.slab_slots(), 1u);  // same slot, new generation
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  old.cancel();  // must not kill the recycled event
  sim.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(Simulator, PeekReturnsNextLiveEventTime) {
  Simulator sim;
  EXPECT_FALSE(sim.peek().has_value());
  EventHandle first = sim.schedule_after(5_s, [] {});
  sim.schedule_after(10_s, [] {});
  ASSERT_TRUE(sim.peek().has_value());
  EXPECT_EQ(*sim.peek(), TimePoint::origin() + 5_s);
  first.cancel();
  ASSERT_TRUE(sim.peek().has_value());  // dead top pruned
  EXPECT_EQ(*sim.peek(), TimePoint::origin() + 10_s);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  sim.run();
  EXPECT_FALSE(sim.peek().has_value());
}

TEST(Simulator, PeriodicReArmDoesNotGrowSlab) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(0_s, 1_s, [&] { ++count; });
  sim.run_until(TimePoint::origin() + Duration::seconds(500));
  EXPECT_EQ(count, 501);
  EXPECT_EQ(sim.slab_slots(), 1u);  // one slot recycled every tick
}

TEST(Simulator, MoveOnlyCaptureInCallback) {
  // UniqueCallback accepts move-only closures (the network captures the
  // envelope's unique_ptr directly).
  Simulator sim;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  sim.schedule_after(1_s,
                     [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

TEST(Simulator, ClearFromInsidePeriodicCallbackEmptiesTheAgenda) {
  Simulator sim;
  int ticks = 0;
  bool later_fired = false;
  EventHandle periodic = sim.schedule_periodic(0_s, 1_s, [&] {
    if (++ticks == 3) sim.clear();
  });
  EventHandle later = sim.schedule_after(10_s, [&] { later_fired = true; });
  EventHandle cancelled = sim.schedule_after(20_s, [] {});
  cancelled.cancel();
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(ticks, 3);  // the dispatching periodic event was not re-armed
  EXPECT_FALSE(later_fired);
  EXPECT_EQ(sim.now(), TimePoint::origin() + 2_s);  // the clock stays put
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.cancelled_pending(), 0u);
  EXPECT_FALSE(sim.peek().has_value());
  EXPECT_FALSE(periodic.pending());
  EXPECT_FALSE(later.pending());
}

TEST(Simulator, HandlesStayInertWhenClearedSlotsAreReused) {
  Simulator sim;
  EventHandle a = sim.schedule_after(1_s, [] {});
  EventHandle b = sim.schedule_periodic(2_s, 2_s, [] {});
  const std::size_t slots = sim.slab_slots();
  sim.clear();
  EXPECT_EQ(sim.pending_events(), 0u);
  int fired = 0;
  EventHandle c = sim.schedule_after(3_s, [&] { ++fired; });
  EventHandle d = sim.schedule_after(4_s, [&] { ++fired; });
  EXPECT_EQ(sim.slab_slots(), slots);  // cleared slots are recycled
  // The stale handles point at recycled slots with new generations: they
  // neither observe nor cancel the new events.
  a.cancel();
  b.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  EXPECT_TRUE(c.pending());
  EXPECT_TRUE(d.pending());
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilEndsEarlyAfterClearAndStepFindsNothing) {
  Simulator sim;
  sim.schedule_after(1_s, [&] { sim.clear(); });
  sim.schedule_after(5_s, [] {});
  EXPECT_EQ(sim.run_until(TimePoint::origin() + 10_s), 1u);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.fired_events(), 1u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  TimePoint last = TimePoint::origin();
  bool monotonic = true;
  Rng rng{99};
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_after(rng.uniform_duration(0_s, 1_h), [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.fired_events(), 10000u);
}

// ---------------------------------------------------------------------------
// Keyed same-instant ordering (Simulator::schedule_at_keyed)
// ---------------------------------------------------------------------------

TEST(KeyedScheduling, SameInstantEventsFireInKeyOrderNotScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_micros(100);
  // Scheduled high key first: scheduling order must lose to key order.
  sim.schedule_at_keyed(t, 30, [&] { order.push_back(30); });
  sim.schedule_at_keyed(t, 10, [&] { order.push_back(10); });
  sim.schedule_at_keyed(t, 20, [&] { order.push_back(20); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(KeyedScheduling, KeyZeroFiresBeforeAnyKeyedDelivery) {
  Simulator sim;
  std::vector<std::string> order;
  const TimePoint t = TimePoint::from_micros(50);
  sim.schedule_at_keyed(t, 7, [&] { order.push_back("delivery"); });
  sim.schedule_at(t, [&] { order.push_back("timer"); });  // key 0, later seq
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"timer", "delivery"}));
}

TEST(KeyedScheduling, TimeStillDominatesKey) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at_keyed(TimePoint::from_micros(200), 1,
                        [&] { order.push_back(2); });
  sim.schedule_at_keyed(TimePoint::from_micros(100), 99,
                        [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(KeyedScheduling, EqualKeysFallBackToScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_micros(10);
  sim.schedule_at_keyed(t, 5, [&] { order.push_back(1); });
  sim.schedule_at_keyed(t, 5, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace aria::sim
