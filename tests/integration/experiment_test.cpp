// End-to-end tests over the full experiment pipeline (paper topology,
// generated catalog, pattern replay, metric extraction).
#include <gtest/gtest.h>

#include "exp/experiment.hpp"

namespace sqos::exp {
namespace {

ExperimentParams small(std::size_t users, core::AllocationMode mode) {
  ExperimentParams p;
  p.users = users;
  p.mode = mode;
  p.seed = 7;
  return p;
}

TEST(Experiment, AccountingBalances) {
  const ExperimentResult r = run_experiment(small(32, core::AllocationMode::kFirm));
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.requests, r.completed + r.failed);
  EXPECT_GT(r.simulated_seconds, 7200.0 - 1.0);
  ASSERT_EQ(r.per_rm.size(), 16u);
  EXPECT_EQ(r.per_rm[0].name, "RM1");
  EXPECT_EQ(r.per_rm[15].name, "RM16");
}

TEST(Experiment, FirmModeNeverOverallocates) {
  const ExperimentResult r = run_experiment(small(128, core::AllocationMode::kFirm));
  EXPECT_DOUBLE_EQ(r.overallocate_ratio, 0.0);
  for (const auto& rm : r.per_rm) EXPECT_DOUBLE_EQ(rm.overallocated_bytes, 0.0);
}

TEST(Experiment, SoftModeNeverFails) {
  const ExperimentResult r = run_experiment(small(128, core::AllocationMode::kSoft));
  EXPECT_EQ(r.failed, 0u);
  EXPECT_DOUBLE_EQ(r.fail_rate, 0.0);
}

TEST(Experiment, DeterministicForSameSeed) {
  const ExperimentResult a = run_experiment(small(32, core::AllocationMode::kFirm));
  const ExperimentResult b = run_experiment(small(32, core::AllocationMode::kFirm));
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_DOUBLE_EQ(a.overallocate_ratio, b.overallocate_ratio);
  EXPECT_EQ(a.control_messages, b.control_messages);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(a.per_rm[i].assigned_bytes, b.per_rm[i].assigned_bytes);
  }
}

TEST(Experiment, SeedChangesOutcome) {
  ExperimentParams p = small(32, core::AllocationMode::kFirm);
  const ExperimentResult a = run_experiment(p);
  p.seed = 8;
  const ExperimentResult b = run_experiment(p);
  EXPECT_NE(a.requests, b.requests);
}

TEST(Experiment, PolicyBeatsRandomUnderLoad) {
  ExperimentParams p = small(256, core::AllocationMode::kFirm);
  p.policy = core::PolicyWeights::random();
  const double random_fail = run_experiment(p).fail_rate;
  p.policy = core::PolicyWeights::p100();
  const double p100_fail = run_experiment(p).fail_rate;
  EXPECT_GT(random_fail, 0.02);
  EXPECT_LT(p100_fail, random_fail);
}

TEST(Experiment, DynamicReplicationImprovesSoftRealtime) {
  ExperimentParams p = small(256, core::AllocationMode::kSoft);
  const double static_ratio = run_experiment(p).overallocate_ratio;
  p.replication = core::ReplicationConfig::rep(1, 3);
  const ExperimentResult rep = run_experiment(p);
  EXPECT_GT(rep.replication_rounds, 0u);
  EXPECT_GT(rep.copies_completed, 0u);
  EXPECT_LT(rep.overallocate_ratio, static_ratio);
}

TEST(Experiment, ReplicationRespectsMaxReplicaBound) {
  ExperimentParams p = small(192, core::AllocationMode::kSoft);
  p.replication = core::ReplicationConfig::rep(1, 3);
  const ExperimentResult r = run_experiment(p);
  // Rep(1,3) never grows the total replica count: it only migrates.
  EXPECT_EQ(r.final_total_replicas, 3000u);

  p.replication = core::ReplicationConfig::rep(1, 8);
  const ExperimentResult r8 = run_experiment(p);
  EXPECT_GE(r8.final_total_replicas, 3000u);
  EXPECT_LE(r8.final_total_replicas, 8000u);
}

TEST(Experiment, EcnpReducesTrafficVersusCnp) {
  ExperimentParams p = small(64, core::AllocationMode::kFirm);
  p.negotiation = dfs::NegotiationModel::kEcnp;
  const ExperimentResult ecnp = run_experiment(p);
  p.negotiation = dfs::NegotiationModel::kCnp;
  const ExperimentResult cnp = run_experiment(p);
  // CNP broadcasts every CFP to all 16 RMs; ECNP contacts the ~3 holders
  // plus one MM round trip: substantially fewer messages in total.
  EXPECT_LT(ecnp.control_messages, cnp.control_messages);
  // And the outcome quality is no worse under ECNP.
  EXPECT_NEAR(ecnp.fail_rate, cnp.fail_rate, 0.02);
}

TEST(Experiment, MonitorSeriesWhenRequested) {
  ExperimentParams p = small(32, core::AllocationMode::kSoft);
  p.monitor_interval = SimTime::seconds(60.0);
  const ExperimentResult r = run_experiment(p);
  ASSERT_EQ(r.rm_series.size(), 16u);
  EXPECT_GT(r.rm_series[0].size(), 100u);  // 2 h at 60 s
  // Some RM carried traffic at some point.
  double peak = 0.0;
  for (const auto& series : r.rm_series) {
    for (const auto& pt : series) peak = std::max(peak, pt.value_bps);
  }
  EXPECT_GT(peak, 0.0);
}

TEST(Experiment, NoMonitorByDefault) {
  const ExperimentResult r = run_experiment(small(16, core::AllocationMode::kSoft));
  EXPECT_TRUE(r.rm_series.empty());
}

TEST(RunAveraged, AveragesAcrossSeeds) {
  ExperimentParams p = small(64, core::AllocationMode::kFirm);
  const ExperimentResult one = run_experiment(p);
  const ExperimentResult avg = run_averaged(p, 3);
  EXPECT_EQ(avg.per_rm.size(), 16u);
  // The averaged request count is near any single seed's (same workload law).
  EXPECT_NEAR(static_cast<double>(avg.requests), static_cast<double>(one.requests),
              static_cast<double>(one.requests) * 0.2);
  // Averaging with seeds=1 equals a single run.
  const ExperimentResult single = run_averaged(p, 1);
  EXPECT_DOUBLE_EQ(single.fail_rate, one.fail_rate);
}

TEST(RunAveraged, AveragesEachMmShard) {
  ExperimentParams p = small(64, core::AllocationMode::kFirm);
  dfs::ClusterConfig cluster = paper_cluster_config();
  cluster.mm_shards = 2;
  p.cluster = cluster;
  const ExperimentResult first = run_experiment(p);
  ExperimentParams next = p;
  next.seed = p.seed + 1;
  const ExperimentResult second = run_experiment(next);
  ASSERT_EQ(first.mm_shard_messages.size(), 2u);
  ASSERT_EQ(second.mm_shard_messages.size(), 2u);
  ASSERT_NE(first.mm_shard_messages, second.mm_shard_messages);

  const ExperimentResult avg = run_averaged(p, 2);
  ASSERT_EQ(avg.mm_shard_messages.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const double mean = (static_cast<double>(first.mm_shard_messages[i]) +
                         static_cast<double>(second.mm_shard_messages[i])) /
                        2.0;
    EXPECT_EQ(avg.mm_shard_messages[i], static_cast<std::uint64_t>(mean + 0.5)) << "shard " << i;
  }
}

class ModePolicySweep
    : public ::testing::TestWithParam<std::tuple<core::AllocationMode, core::PolicyWeights>> {};

TEST_P(ModePolicySweep, InvariantsHoldForEveryConfiguration) {
  const auto [mode, policy] = GetParam();
  ExperimentParams p;
  p.users = 48;
  p.mode = mode;
  p.policy = policy;
  p.seed = 11;
  p.replication = core::ReplicationConfig::rep(1, 3);
  const ExperimentResult r = run_experiment(p);

  EXPECT_EQ(r.requests, r.completed + r.failed);
  EXPECT_GE(r.overallocate_ratio, 0.0);
  EXPECT_LE(r.overallocate_ratio, 1.0);
  EXPECT_GE(r.fail_rate, 0.0);
  EXPECT_LE(r.fail_rate, 1.0);
  for (const auto& rm : r.per_rm) {
    EXPECT_GE(rm.assigned_bytes, 0.0);
    EXPECT_LE(rm.overallocated_bytes, rm.assigned_bytes + 1.0);
  }
  if (mode == core::AllocationMode::kFirm) {
    EXPECT_DOUBLE_EQ(r.overallocate_ratio, 0.0);
  } else {
    EXPECT_EQ(r.failed, 0u);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<ModePolicySweep::ParamType>& param_info) {
  std::string name{to_string(std::get<0>(param_info.param))};
  name += '_';
  for (const char c : std::get<1>(param_info.param).to_string()) {
    if (c >= '0' && c <= '9') name += c;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ModePolicySweep,
    ::testing::Combine(::testing::Values(core::AllocationMode::kFirm,
                                         core::AllocationMode::kSoft),
                       ::testing::ValuesIn(core::PolicyWeights::paper_set())),
    sweep_name);

}  // namespace
}  // namespace sqos::exp
