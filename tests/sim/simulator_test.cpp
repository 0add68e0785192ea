#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sqos::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunsEventsInOrderAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::seconds(1.0), [&] {
    order.push_back(1);
    EXPECT_EQ(sim.now(), SimTime::seconds(1.0));
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::seconds(2.0));
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Simulator, SameTimeRunsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired;
  sim.schedule_at(SimTime::seconds(5.0), [&] {
    sim.schedule_after(SimTime::seconds(3.0), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime::seconds(8.0));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(SimTime::millis(1), recurse);
  };
  sim.schedule_at(SimTime::zero(), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::millis(99));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(SimTime::seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(SimTime::seconds(t), [&fired, t] { fired.push_back(t); });
  }
  sim.run_until(SimTime::seconds(2.5));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sim.now(), SimTime::seconds(2.5));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(sim.now(), SimTime::seconds(10.0));
}

TEST(Simulator, RunUntilInclusiveOfDeadlineEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(SimTime::seconds(2.0), [&] { ran = true; });
  sim.run_until(SimTime::seconds(2.0));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(SimTime::seconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.run();  // resumes after stop
  EXPECT_EQ(count, 10);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::seconds(1.0), [&] { ++count; });
  sim.schedule_at(SimTime::seconds(2.0), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Simulator sim;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::micros((i * 37) % 17), [&trace, &sim] {
        trace.push_back(sim.now().as_micros());
      });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// One executed event as the tests below observe it.
struct Fired {
  std::string label;
  std::int64_t at_us;
  std::size_t pending;
  friend bool operator==(const Fired&, const Fired&) = default;
};

/// Ordinary events around a series at the same instants, plus events the
/// series schedules while it runs. `as_series` schedules the {1,1,2,3,3,5} s
/// arrivals either as one series or as six schedule_at calls.
std::vector<Fired> run_with_series(bool as_series) {
  Simulator sim;
  std::vector<Fired> log;
  const auto record = [&log, &sim](std::string label) {
    log.push_back(Fired{std::move(label), sim.now().as_micros(), sim.pending_events()});
  };
  const std::vector<double> times = {1.0, 1.0, 2.0, 3.0, 3.0, 5.0};
  sim.schedule_at(SimTime::seconds(1.0), [&] { record("before"); });
  const auto arrival = [&](std::size_t i) {
    record("arrival" + std::to_string(i));
    // Same-instant work scheduled while the series runs comes after every
    // arrival already due at this instant.
    sim.schedule_after(SimTime::zero(), [&, i] { record("echo" + std::to_string(i)); });
  };
  if (as_series) {
    sim.schedule_series(
        times.size(), [&](std::size_t i) { return SimTime::seconds(times[i]); }, arrival);
  } else {
    for (std::size_t i = 0; i < times.size(); ++i) {
      sim.schedule_at(SimTime::seconds(times[i]), [&arrival, i] { arrival(i); });
    }
  }
  sim.schedule_at(SimTime::seconds(3.0), [&] { record("after"); });
  record("scheduled");
  sim.run();
  record("done");
  return log;
}

TEST(Simulator, SeriesRunsExactlyLikeEagerSchedules) {
  const std::vector<Fired> series = run_with_series(true);
  EXPECT_EQ(series, run_with_series(false));
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.front(), (Fired{"scheduled", 0, 8}));  // 1 + 6 arrivals + 1
  EXPECT_EQ(series.back(), (Fired{"done", 5'000'000, 0}));
}

TEST(Simulator, EmptySeriesSchedulesNothing) {
  Simulator sim;
  int fired = 0;
  sim.schedule_series(
      0, [](std::size_t) { return SimTime::zero(); }, [&fired](std::size_t) { ++fired; });
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, PeriodicSeriesIncludesItsLastTick) {
  const Periodic ticks{SimTime::seconds(10.0), SimTime::seconds(5.0)};
  EXPECT_EQ(ticks(0), SimTime::seconds(10.0));
  EXPECT_EQ(ticks(2), SimTime::seconds(20.0));
  EXPECT_EQ(ticks.count_through(SimTime::seconds(9.0)), 0u);
  EXPECT_EQ(ticks.count_through(SimTime::seconds(10.0)), 1u);
  EXPECT_EQ(ticks.count_through(SimTime::seconds(24.9)), 3u);
  EXPECT_EQ(ticks.count_through(SimTime::seconds(25.0)), 4u);

  Simulator sim;
  std::vector<std::int64_t> at;
  sim.schedule_series(ticks.count_through(SimTime::seconds(25.0)), ticks,
                      [&](std::size_t) { at.push_back(sim.now().as_micros()); });
  sim.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{10'000'000, 15'000'000, 20'000'000, 25'000'000}));
}

}  // namespace
}  // namespace sqos::sim
