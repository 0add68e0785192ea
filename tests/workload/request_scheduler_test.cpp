#include "workload/request_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "testing/test_cluster.hpp"

namespace sqos::workload {
namespace {

std::vector<AccessEvent> three_requests() {
  // Users 0..2 each request once; user 2 wraps onto the single client.
  return {AccessEvent{SimTime::seconds(0.0), 0, 1},
          AccessEvent{SimTime::seconds(2.0), 1, 2},
          AccessEvent{SimTime::seconds(4.0), 2, 1}};
}

TEST(RequestScheduler, DispatchesEveryPatternEventAndDrains) {
  auto cluster = testing::make_small_cluster();
  ASSERT_TRUE(cluster->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster->place_replica(0, 2).is_ok());
  cluster->start();

  RequestScheduler scheduler{*cluster, three_requests()};
  EXPECT_EQ(scheduler.request_count(), 3u);
  scheduler.schedule();  // default 1 s start offset
  cluster->simulator().run();

  EXPECT_EQ(scheduler.dispatched(), 3u);
  EXPECT_EQ(scheduler.completed(), 3u);
  EXPECT_EQ(scheduler.failed(), 0u);
  EXPECT_TRUE(scheduler.drained());
  EXPECT_DOUBLE_EQ(scheduler.fail_rate(), 0.0);
}

TEST(RequestScheduler, CountsFirmRefusalsAsFailures) {
  // Only the two 10 Mbit/s RMs hold file 4 (4 Mbit/s): three concurrent
  // 100 s streams exceed what firm admission will grant on one RM, and the
  // cluster config replicates the file on RM2 and RM3 only.
  auto cluster = testing::make_small_cluster();
  ASSERT_TRUE(cluster->place_replica(1, 4).is_ok());
  cluster->start();

  std::vector<AccessEvent> burst;
  for (std::uint32_t u = 0; u < 4; ++u) {
    burst.push_back(AccessEvent{SimTime::millis(u), u, 4});
  }
  RequestScheduler scheduler{*cluster, std::move(burst)};
  scheduler.schedule();
  cluster->simulator().run();

  EXPECT_EQ(scheduler.dispatched(), 4u);
  EXPECT_EQ(scheduler.completed() + scheduler.failed(), 4u);
  EXPECT_GT(scheduler.failed(), 0u);  // 10 Mbit/s cap admits at most two 4 Mbit/s streams
  EXPECT_TRUE(scheduler.drained());
  EXPECT_DOUBLE_EQ(scheduler.fail_rate(),
                   static_cast<double>(scheduler.failed()) / 4.0);
}

TEST(RequestScheduler, UnsortedPatternDispatchesInTimeThenPatternOrder) {
  // A loaded trace need not be sorted. One schedule_at per event would fire
  // them in (time, pattern index) order; the series must too, ties included.
  // The user map runs as each request is dispatched, so it logs the order.
  auto cluster = testing::make_small_cluster();
  ASSERT_TRUE(cluster->place_replica(0, 1).is_ok());
  cluster->start();

  const std::vector<double> at = {3.0, 1.0, 3.0, 1.0, 2.0, 1.0};
  std::vector<AccessEvent> pattern;
  for (std::uint32_t u = 0; u < at.size(); ++u) {
    pattern.push_back(AccessEvent{SimTime::seconds(at[u]), u, 1});
  }
  RequestScheduler scheduler{*cluster, std::move(pattern)};
  std::vector<std::uint32_t> order;
  scheduler.set_user_map([&order](std::uint32_t user) {
    order.push_back(user);
    return std::size_t{0};
  });
  const std::size_t registration = cluster->simulator().pending_events();
  scheduler.schedule();
  EXPECT_EQ(cluster->simulator().pending_events(), registration + at.size());
  cluster->simulator().run();

  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 5, 4, 0, 2}));
  EXPECT_EQ(scheduler.dispatched(), at.size());
  EXPECT_TRUE(scheduler.drained());
}

TEST(RequestScheduler, EmptyPatternReportsZeroFailRate) {
  auto cluster = testing::make_small_cluster();
  cluster->start();
  RequestScheduler scheduler{*cluster, {}};
  scheduler.schedule();
  cluster->simulator().run();
  EXPECT_EQ(scheduler.dispatched(), 0u);
  EXPECT_TRUE(scheduler.drained());
  EXPECT_DOUBLE_EQ(scheduler.fail_rate(), 0.0);
}

}  // namespace
}  // namespace sqos::workload
