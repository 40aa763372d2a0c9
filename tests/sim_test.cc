// Unit tests for the discrete-event core: ordering, cancellation, periodic
// tasks, run-loop semantics.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace pdpa {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Schedule(30, [&] { fired.push_back(3); });
  queue.Schedule(10, [&] { fired.push_back(1); });
  queue.Schedule(20, [&] { fired.push_back(2); });
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFifo) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    queue.Schedule(100, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.Schedule(10, [&] { ran = true; });
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.Cancel(id));  // double cancel
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelInvalidIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(0));
  EXPECT_FALSE(queue.Cancel(12345));
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue queue;
  std::vector<SimTime> times;
  queue.Schedule(1, [&] {
    times.push_back(1);
    queue.Schedule(5, [&] { times.push_back(5); });
  });
  while (!queue.empty()) {
    queue.RunNext();
  }
  EXPECT_EQ(times, (std::vector<SimTime>{1, 5}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId early = queue.Schedule(10, [] {});
  queue.Schedule(20, [] {});
  queue.Cancel(early);
  EXPECT_EQ(queue.NextTime(), 20);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue queue;
  queue.Schedule(100, [] {});
  queue.RunNext();
  EXPECT_DEATH(queue.Schedule(50, [] {}), "Check failed");
}

TEST(SimulationTest, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.events().Schedule(10, [&] { ++fired; });
  sim.events().Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10);
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, AfterSchedulesRelative) {
  Simulation sim;
  SimTime fire_time = -1;
  sim.events().Schedule(100, [&] {
    sim.events().Schedule(sim.now() + 50, [&] { fire_time = sim.now(); });
  });
  sim.RunUntil(1000);
  EXPECT_EQ(fire_time, 150);
}

TEST(SimulationTest, PeriodicTaskFiresRegularly) {
  Simulation sim;
  std::vector<SimTime> fires;
  sim.SchedulePeriodic(10, 10, [&](SimTime now) { fires.push_back(now); });
  sim.RunUntil(55);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30, 40, 50}));
}

TEST(SimulationTest, StopPeriodicHalts) {
  Simulation sim;
  int count = 0;
  int handle = -1;
  handle = sim.SchedulePeriodic(10, 10, [&](SimTime) {
    if (++count == 3) {
      sim.CancelPeriodic(handle);
    }
  });
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
  // Cancelling from inside the callback leaves no chain event behind.
  EXPECT_TRUE(sim.events().empty());
}

TEST(SimulationTest, TwoPeriodicTasksInterleaveDeterministically) {
  Simulation sim;
  std::vector<int> order;
  sim.SchedulePeriodic(10, 20, [&](SimTime) { order.push_back(1); });
  sim.SchedulePeriodic(10, 20, [&](SimTime) { order.push_back(2); });
  sim.RunUntil(50);
  // Same-time events fire in scheduling order every period.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(SimulationTest, RunToCompletionAdvancesToLastEvent) {
  Simulation sim;
  sim.events().Schedule(77, [] {});
  while (!sim.events().empty()) {
    sim.Step();
  }
  EXPECT_EQ(sim.now(), 77);
}

// --- EventQueue slot reuse / stale-id semantics ---------------------------

TEST(EventQueueTest, SlotReuseInvalidatesOldId) {
  EventQueue queue;
  int fired = 0;
  const EventId first = queue.Schedule(10, [&] { ++fired; });
  ASSERT_TRUE(queue.Cancel(first));
  // The freed slot is recycled for the next event, under a new generation.
  const EventId second = queue.Schedule(20, [&] { fired += 10; });
  EXPECT_NE(first, second);
  // The stale id must not cancel the slot's new occupant.
  EXPECT_FALSE(queue.Cancel(first));
  queue.RunNext();
  EXPECT_EQ(fired, 10);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, IdStaysInvalidAfterRun) {
  EventQueue queue;
  const EventId id = queue.Schedule(5, [] {});
  queue.RunNext();
  EXPECT_FALSE(queue.Cancel(id));
  // Heavy churn through the free list: ids never repeat even as slots do.
  EventId last = id;
  for (int i = 0; i < 1000; ++i) {
    const EventId next = queue.Schedule(10 + i, [] {});
    EXPECT_NE(next, last);
    last = next;
    queue.RunNext();
    EXPECT_FALSE(queue.Cancel(next));
  }
}

TEST(EventQueueTest, CancelledEntriesDoNotCountTowardSize) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.Schedule(100 + i, [] {}));
  }
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(queue.Cancel(ids[i]));
  }
  EXPECT_EQ(queue.size(), 50u);
  int ran = 0;
  while (!queue.empty()) {
    queue.RunNext();
    ++ran;
  }
  EXPECT_EQ(ran, 50);
}

// --- RunUntil contract (documented in simulation.h) -----------------------

TEST(SimulationTest, RunUntilPeriodicStraddlesHorizon) {
  Simulation sim;
  std::vector<SimTime> fires;
  sim.SchedulePeriodic(70, 70, [&](SimTime now) { fires.push_back(now); });
  // The next instance (140) lies beyond the horizon: now() stays at the
  // last dispatched firing, not at `until`.
  EXPECT_EQ(sim.RunUntil(100), 70);
  EXPECT_EQ(sim.now(), 70);
  EXPECT_EQ(fires, (std::vector<SimTime>{70}));
  // Resuming picks up the queued instance; again now() ends on a firing.
  EXPECT_EQ(sim.RunUntil(300), 280);
  EXPECT_EQ(fires, (std::vector<SimTime>{70, 140, 210, 280}));
}

TEST(SimulationTest, RunUntilDrainedQueueReachesHorizonExactly) {
  Simulation sim;
  sim.events().Schedule(30, [] {});
  EXPECT_EQ(sim.RunUntil(100), 100);
  EXPECT_EQ(sim.now(), 100);
}

}  // namespace
}  // namespace pdpa
