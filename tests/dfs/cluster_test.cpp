#include "dfs/cluster.hpp"

#include <gtest/gtest.h>

#include "exp/paper_setup.hpp"
#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

TEST(ClusterBuild, RejectsEmptyTopology) {
  ClusterConfig cfg;
  EXPECT_FALSE(Cluster::build(cfg, sqos::testing::tiny_catalog()).is_ok());

  cfg = sqos::testing::small_cluster_config();
  cfg.client_count = 0;
  EXPECT_FALSE(Cluster::build(cfg, sqos::testing::tiny_catalog()).is_ok());
}

TEST(ClusterBuild, RejectsBadMachineIndex) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.rms[0].machine = 99;
  const auto r = Cluster::build(cfg, sqos::testing::tiny_catalog());
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterBuild, RejectsAnyExecShardCountButOne) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    cfg.exec_shards = shards;
    const auto r = Cluster::build(cfg, sqos::testing::tiny_catalog());
    ASSERT_FALSE(r.is_ok()) << "exec_shards=" << shards;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  cfg.exec_shards = 1;
  EXPECT_TRUE(Cluster::build(cfg, sqos::testing::tiny_catalog()).is_ok());
}

TEST(ClusterBuild, RejectsZeroBandwidthRm) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.rms[1].bandwidth = Bandwidth::zero();
  EXPECT_FALSE(Cluster::build(cfg, sqos::testing::tiny_catalog()).is_ok());
}

TEST(ClusterBuild, RejectsOverDispatchedMachine) {
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.rms[0].bandwidth = Bandwidth::mbps(100.0);  // machine m1 sustains 60
  EXPECT_FALSE(Cluster::build(cfg, sqos::testing::tiny_catalog()).is_ok());
}

TEST(ClusterBuild, WiresComponents) {
  auto cluster = sqos::testing::make_small_cluster();
  EXPECT_EQ(cluster->rm_count(), 3u);
  EXPECT_EQ(cluster->client_count(), 1u);
  EXPECT_EQ(cluster->machine_count(), 2u);
  EXPECT_EQ(cluster->rm(0).name(), "RM1");
  EXPECT_EQ(cluster->rm(0).cap(), Bandwidth::mbps(40.0));
  EXPECT_EQ(cluster->directory().size(), 4u);
  EXPECT_EQ(cluster->total_allocated(), Bandwidth::zero());
}

TEST(ClusterStart, RegistersAllRmsWithTheMm) {
  auto cluster = sqos::testing::make_small_cluster();
  EXPECT_EQ(cluster->mm().registered_rm_count(), 0u);
  cluster->start();
  cluster->simulator().run();
  EXPECT_EQ(cluster->mm().registered_rm_count(), 3u);
  EXPECT_EQ(cluster->network().stats().count(net::MessageKind::kRegister), 3u);
  EXPECT_EQ(cluster->network().stats().count(net::MessageKind::kRegisterAck), 3u);
}

TEST(ClusterPlaceReplica, UpdatesRmAndMm) {
  auto cluster = sqos::testing::make_small_cluster();
  ASSERT_TRUE(cluster->place_replica(1, 3).is_ok());
  EXPECT_TRUE(cluster->rm(1).has_replica(3));
  EXPECT_EQ(cluster->mm().replica_count(3), 1u);
  // Duplicate placement on the same RM fails.
  EXPECT_FALSE(cluster->place_replica(1, 3).is_ok());
}

TEST(PaperSetup, TopologyMatchesSectionSixA) {
  const ClusterConfig cfg = exp::paper_cluster_config();
  ASSERT_EQ(cfg.machines.size(), 5u);
  ASSERT_EQ(cfg.rms.size(), 16u);
  EXPECT_EQ(cfg.client_count, 8u);

  for (const MachineSpec& m : cfg.machines) {
    EXPECT_EQ(m.sustained, Bandwidth::mbytes_per_sec(16.0));
  }
  // RM1 and RM9 extra large; RM2, RM3, RM10, RM11 at 19; the rest at 18.
  EXPECT_EQ(cfg.rms[0].bandwidth, Bandwidth::mbps(128.0));
  EXPECT_EQ(cfg.rms[8].bandwidth, Bandwidth::mbps(128.0));
  for (std::size_t idx : {1u, 2u, 9u, 10u}) {
    EXPECT_EQ(cfg.rms[idx].bandwidth, Bandwidth::mbps(19.0)) << "RM" << idx + 1;
  }
  for (std::size_t idx : {3u, 4u, 5u, 6u, 7u, 11u, 12u, 13u, 14u, 15u}) {
    EXPECT_EQ(cfg.rms[idx].bandwidth, Bandwidth::mbps(18.0)) << "RM" << idx + 1;
  }

  // Per-machine dispatch fits the sustained disk bandwidth.
  std::vector<double> dispatched(cfg.machines.size(), 0.0);
  for (const RmSpec& rm : cfg.rms) dispatched[rm.machine] += rm.bandwidth.as_mbps();
  for (std::size_t m = 0; m < dispatched.size(); ++m) {
    EXPECT_LE(dispatched[m], cfg.machines[m].sustained.as_mbps()) << "machine " << m;
  }

  // Total dispatched bandwidth: 2x128 + 4x19 + 10x18 = 512 Mbit/s.
  double total = 0.0;
  for (const RmSpec& rm : cfg.rms) total += rm.bandwidth.as_mbps();
  EXPECT_DOUBLE_EQ(total, 512.0);

  // The paper cluster builds successfully.
  auto built = Cluster::build(cfg, sqos::testing::tiny_catalog());
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
}

TEST(PaperSetup, LargeAndSmallIndexPartition) {
  const auto large = exp::paper_large_rm_indices();
  const auto small = exp::paper_small_rm_indices();
  EXPECT_EQ(large, (std::vector<std::size_t>{0, 8}));
  EXPECT_EQ(small.size(), 14u);
  for (const std::size_t i : small) {
    EXPECT_NE(i, 0u);
    EXPECT_NE(i, 8u);
  }
}

TEST(PaperSetup, WorkloadParams) {
  const auto pattern = exp::paper_pattern_params(256);
  EXPECT_EQ(pattern.users, 256u);
  EXPECT_EQ(pattern.duration, SimTime::hours(2.0));
  EXPECT_EQ(pattern.mean_interarrival, SimTime::seconds(300.0));
  EXPECT_EQ(exp::paper_catalog_params().file_count, 1000u);
  EXPECT_EQ(exp::paper_placement_params().replicas, 3u);
}

}  // namespace
}  // namespace sqos::dfs
