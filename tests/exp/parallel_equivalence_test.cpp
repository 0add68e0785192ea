// Parallel-vs-serial equivalence over the real experiment stack: the merge
// is position-based, so run_averaged must produce bit-identical
// results at every jobs value. EXPECT_EQ on doubles is deliberate — the
// contract is exact bitwise equality, not tolerance. Under TSan this doubles
// as the data-race probe for concurrent run_experiment calls.
#include <gtest/gtest.h>

#include <cstddef>

#include "exp/experiment.hpp"

namespace sqos::exp {
namespace {

ExperimentParams small_params() {
  ExperimentParams params;
  params.users = 32;
  params.mode = core::AllocationMode::kSoft;
  params.policy = core::PolicyWeights{1.0, 1.0, 1.0};
  params.replication = core::ReplicationConfig::rep(1, 3);
  params.seed = 7;
  return params;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.fail_rate, b.fail_rate);
  EXPECT_EQ(a.overallocate_ratio, b.overallocate_ratio);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.replication_rounds, b.replication_rounds);
  EXPECT_EQ(a.copies_completed, b.copies_completed);
  EXPECT_EQ(a.destination_rejects, b.destination_rejects);
  EXPECT_EQ(a.self_deletes, b.self_deletes);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(a.final_total_replicas, b.final_total_replicas);
  EXPECT_EQ(a.gc_deletes, b.gc_deletes);
  EXPECT_EQ(a.gc_bytes_reclaimed, b.gc_bytes_reclaimed);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.mm_messages, b.mm_messages);
  EXPECT_EQ(a.mm_shard_messages, b.mm_shard_messages);
  EXPECT_EQ(a.mean_negotiation_ms, b.mean_negotiation_ms);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  ASSERT_EQ(a.per_rm.size(), b.per_rm.size());
  for (std::size_t i = 0; i < a.per_rm.size(); ++i) {
    EXPECT_EQ(a.per_rm[i].name, b.per_rm[i].name);
    EXPECT_EQ(a.per_rm[i].cap_bps, b.per_rm[i].cap_bps);
    EXPECT_EQ(a.per_rm[i].assigned_bytes, b.per_rm[i].assigned_bytes);
    EXPECT_EQ(a.per_rm[i].overallocated_bytes, b.per_rm[i].overallocated_bytes);
    EXPECT_EQ(a.per_rm[i].overallocate_ratio, b.per_rm[i].overallocate_ratio);
  }
  // The rendered summary is what benches print; it must match to the byte.
  EXPECT_EQ(summarize(a), summarize(b));
}

TEST(ParallelEquivalence, RunAveragedIsBitIdenticalAcrossJobs) {
  const ExperimentParams params = small_params();
  const ExperimentResult serial = run_averaged(params, 4, 1);
  const ExperimentResult wide = run_averaged(params, 4, 4);
  expect_identical(serial, wide);
  // Legacy 2-arg entry point is the jobs=1 path.
  expect_identical(serial, run_averaged(params, 4));
}

TEST(ParallelEquivalence, RunAveragedDefaultJobsMatchesSerial) {
  // jobs=0 resolves to hardware concurrency — whatever that is here, the
  // numbers must not move.
  const ExperimentParams params = small_params();
  expect_identical(run_averaged(params, 2, 1), run_averaged(params, 2, 0));
}

}  // namespace
}  // namespace sqos::exp
