#include <gtest/gtest.h>

#include "storage/blkio_throttle.hpp"
#include "storage/block_device.hpp"
#include "storage/flow.hpp"

namespace sqos::storage {
namespace {

TEST(FlowTable, AddRemoveTracksTotal) {
  FlowTable t;
  const FlowId a = t.add(FlowKind::kRead, 1, Bandwidth::mbps(2.0), SimTime::zero());
  const FlowId b = t.add(FlowKind::kWrite, 2, Bandwidth::mbps(3.0), SimTime::zero());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.total_rate().as_mbps(), 5.0);
  EXPECT_TRUE(t.contains(a));
  EXPECT_TRUE(t.remove(a));
  EXPECT_DOUBLE_EQ(t.total_rate().as_mbps(), 3.0);
  EXPECT_FALSE(t.remove(a));  // double remove
  EXPECT_TRUE(t.remove(b));
  EXPECT_EQ(t.total_rate(), Bandwidth::zero());
}

TEST(FlowTable, FindReturnsFlowDetails) {
  FlowTable t;
  const FlowId id = t.add(FlowKind::kReplicationIn, 42, Bandwidth::mbps(1.8),
                          SimTime::seconds(5.0));
  const Flow* f = t.find(id);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->file, 42u);
  EXPECT_EQ(f->kind, FlowKind::kReplicationIn);
  EXPECT_EQ(f->started, SimTime::seconds(5.0));
  EXPECT_EQ(t.find(FlowId{999}), nullptr);
}

TEST(FlowTable, SnapshotContainsAllFlows) {
  FlowTable t;
  t.add(FlowKind::kRead, 1, Bandwidth::mbps(1.0), SimTime::zero());
  t.add(FlowKind::kRead, 2, Bandwidth::mbps(2.0), SimTime::zero());
  EXPECT_EQ(t.snapshot().size(), 2u);
}

TEST(ThrottleGroup, RemainingNeverNegative) {
  ThrottleGroup g{"vm1", Bandwidth::mbps(10.0)};
  EXPECT_DOUBLE_EQ(g.remaining().as_mbps(), 10.0);
  g.add_flow(FlowKind::kRead, 1, Bandwidth::mbps(8.0), SimTime::zero());
  EXPECT_DOUBLE_EQ(g.remaining().as_mbps(), 2.0);
  g.add_flow(FlowKind::kRead, 2, Bandwidth::mbps(8.0), SimTime::zero());
  EXPECT_EQ(g.remaining(), Bandwidth::zero());
  EXPECT_DOUBLE_EQ(g.allocated().as_mbps(), 16.0);
}

TEST(ThrottleGroup, PressureAndOverflow) {
  ThrottleGroup g{"vm1", Bandwidth::mbps(10.0)};
  EXPECT_DOUBLE_EQ(g.pressure(), 1.0);
  g.add_flow(FlowKind::kRead, 1, Bandwidth::mbps(5.0), SimTime::zero());
  EXPECT_DOUBLE_EQ(g.pressure(), 1.0);
  EXPECT_EQ(g.overflow(), Bandwidth::zero());
  g.add_flow(FlowKind::kRead, 2, Bandwidth::mbps(15.0), SimTime::zero());
  EXPECT_DOUBLE_EQ(g.pressure(), 2.0);
  EXPECT_DOUBLE_EQ(g.overflow().as_mbps(), 10.0);
}

TEST(ThrottleGroup, EffectiveRateScalesUnderOversubscription) {
  ThrottleGroup g{"vm1", Bandwidth::mbps(10.0)};
  const FlowId a = g.add_flow(FlowKind::kRead, 1, Bandwidth::mbps(10.0), SimTime::zero());
  EXPECT_DOUBLE_EQ(g.effective_rate(a).as_mbps(), 10.0);
  const FlowId b = g.add_flow(FlowKind::kRead, 2, Bandwidth::mbps(10.0), SimTime::zero());
  // 2x oversubscribed: each flow is throttled to half its allocation.
  EXPECT_DOUBLE_EQ(g.effective_rate(a).as_mbps(), 5.0);
  EXPECT_DOUBLE_EQ(g.effective_rate(b).as_mbps(), 5.0);
  EXPECT_EQ(g.effective_rate(FlowId{999}), Bandwidth::zero());
}

TEST(BlockDevice, RejectsOverDispatch) {
  BlockDevice dev{"pm1", Bandwidth::mbps(128.0)};
  auto g1 = dev.create_group("RM1", Bandwidth::mbps(128.0));
  ASSERT_TRUE(g1.is_ok());
  auto g2 = dev.create_group("RM2", Bandwidth::mbps(1.0));
  EXPECT_FALSE(g2.is_ok());
  EXPECT_EQ(g2.status().code(), StatusCode::kResourceExhausted);
}

TEST(BlockDevice, DeliveredCapsAtGroupLimits) {
  BlockDevice dev{"pm1", Bandwidth::mbps(128.0)};
  auto g1 = dev.create_group("RM1", Bandwidth::mbps(20.0));
  auto g2 = dev.create_group("RM2", Bandwidth::mbps(20.0));
  ASSERT_TRUE(g1.is_ok());
  ASSERT_TRUE(g2.is_ok());
  g1.value()->add_flow(FlowKind::kRead, 1, Bandwidth::mbps(30.0), SimTime::zero());
  g2.value()->add_flow(FlowKind::kRead, 2, Bandwidth::mbps(5.0), SimTime::zero());
  // Group 1 delivers its 20 Mbps cap despite 30 allocated; group 2 delivers 5.
  EXPECT_DOUBLE_EQ(dev.delivered().as_mbps(), 25.0);
  EXPECT_EQ(dev.group_count(), 2u);
  EXPECT_EQ(dev.group(0).name(), "RM1");
}

TEST(BlockDevice, PaperDispatchFits) {
  // pm3 of the paper setup: 19+19+18+18+18 = 92 Mbit/s on a 128 Mbit/s disk.
  BlockDevice dev{"pm3", Bandwidth::mbytes_per_sec(16.0)};
  for (double bw : {19.0, 19.0, 18.0, 18.0, 18.0}) {
    ASSERT_TRUE(dev.create_group("rm", Bandwidth::mbps(bw)).is_ok());
  }
  EXPECT_DOUBLE_EQ(dev.dispatched().as_mbps(), 92.0);
}

}  // namespace
}  // namespace sqos::storage
