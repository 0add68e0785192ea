// Differential battery: EC(4,2) against replication-3 on identical seeds
// (ROADMAP item 4). The two layouts must agree on the workload outcome while
// the EC run stores exactly half the bytes (6 * ceil(size/4) vs 3 * size per
// file), the rebalance agent must drain an RM to zero shards without losing
// a single one, and every EC run must be byte-identical across repeats and
// jobs=1 vs jobs=2 — the same determinism bar the replication goldens
// already enforce.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "check/op_fuzzer.hpp"
#include "exp/experiment.hpp"
#include "storage/stripe_layout.hpp"
#include "testing/test_cluster.hpp"
#include "workload/video_catalog.hpp"

namespace sqos {
namespace {

exp::ExperimentParams small_params() {
  exp::ExperimentParams params;
  params.users = 24;
  params.seed = 3;
  params.catalog.file_count = 100;
  workload::PatternParams pattern;
  pattern.users = params.users;
  pattern.duration = SimTime::minutes(20.0);
  params.pattern = pattern;
  return params;
}

/// Canonical byte-equality fingerprint over every scalar the run produces.
std::string fingerprint(const exp::ExperimentResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "req=%" PRIu64 " done=%" PRIu64 " fail=%" PRIu64 " msgs=%" PRIu64
                " bytes=%" PRIu64 " mm=%" PRIu64 " events=%" PRIu64 " ec=%" PRIu64
                " ecdeg=%" PRIu64 " ecfail=%" PRIu64 " stor=%" PRIu64 " fr=%a oa=%a",
                r.requests, r.completed, r.failed, r.control_messages, r.control_bytes,
                r.mm_messages, r.executed_events, r.ec_reads, r.ec_degraded_reads,
                r.ec_failed_reads, r.storage_bytes_used, r.fail_rate, r.overallocate_ratio);
  return buf;
}

TEST(EcVsReplication, SameSeedHalvesStorageAndAgreesOnWorkload) {
  exp::ExperimentParams rep = small_params();  // replication-3 default
  exp::ExperimentParams ec = small_params();
  ec.layout = storage::LayoutPolicy::erasure(4, 2);

  const exp::ExperimentResult rep_r = exp::run_experiment(rep);
  const exp::ExperimentResult ec_r = exp::run_experiment(ec);

  // Both layouts replay the identical arrival pattern and complete it.
  EXPECT_EQ(rep_r.requests, ec_r.requests);
  EXPECT_EQ(rep_r.failed, 0u);
  EXPECT_EQ(ec_r.failed, 0u);
  EXPECT_EQ(rep_r.ec_reads, 0u);
  EXPECT_EQ(ec_r.ec_reads, ec_r.completed);
  EXPECT_EQ(ec_r.ec_degraded_reads, 0u);  // nothing crashed
  EXPECT_EQ(ec_r.ec_failed_reads, 0u);

  // Storage delta, exact: no replication rounds or GC run, so final disk
  // usage is the static placement — 3 whole copies per file against
  // (k + m) * ceil(size / k) shard bytes per file.
  Rng root{rep.seed};
  Rng catalog_rng = root.fork("catalog");
  const dfs::FileDirectory catalog = workload::generate_catalog(rep.catalog, catalog_rng);
  std::uint64_t rep_expected = 0;
  std::uint64_t ec_expected = 0;
  for (const dfs::FileMeta& f : catalog.files()) {
    rep_expected += 3u * static_cast<std::uint64_t>(f.size.count());
    ec_expected += 6u * static_cast<std::uint64_t>(storage::shard_bytes(f.size, 4).count());
  }
  EXPECT_EQ(rep_r.storage_bytes_used, rep_expected);
  EXPECT_EQ(ec_r.storage_bytes_used, ec_expected);
  EXPECT_LT(ec_r.storage_bytes_used, rep_r.storage_bytes_used);
  // EC(4,2) overhead is 1.5x vs 3x — the ratio (modulo per-file ceil) is 2.
  EXPECT_NEAR(static_cast<double>(rep_r.storage_bytes_used) /
                  static_cast<double>(ec_r.storage_bytes_used),
              2.0, 0.01);
}

TEST(EcVsReplication, EcRunsAreByteIdenticalAcrossRepeatsAndJobs) {
  exp::ExperimentParams ec = small_params();
  ec.layout = storage::LayoutPolicy::erasure(4, 2);

  const std::string once = fingerprint(exp::run_experiment(ec));
  EXPECT_EQ(once, fingerprint(exp::run_experiment(ec)));  // repeats

  const std::string jobs1 = fingerprint(exp::run_averaged(ec, 2, 1));
  const std::string jobs2 = fingerprint(exp::run_averaged(ec, 2, 2));
  EXPECT_EQ(jobs1, jobs2);  // jobs=1 vs 2
}

using testing::six_rm_config;

TEST(Rebalance, DrainEmptiesAnRmToZeroShardsWithoutLosingAny) {
  // Acceptance criterion verbatim: rebalance empties a drained RM to zero
  // shards. Four EC(2,1) stripes all pin shard 0 on RM0 but each leaves at
  // least two RMs free, so anti-affinity always has a legal destination
  // (a stripe spanning every RM would be undrainable by design).
  auto cluster = testing::make_small_cluster(six_rm_config(), testing::tiny_catalog(4));
  ASSERT_TRUE(cluster->place_stripe(1, 2, 1, {0, 1, 2}).is_ok());
  ASSERT_TRUE(cluster->place_stripe(2, 2, 1, {0, 2, 3}).is_ok());
  ASSERT_TRUE(cluster->place_stripe(3, 2, 1, {0, 3, 4}).is_ok());
  ASSERT_TRUE(cluster->place_stripe(4, 2, 1, {0, 4, 5}).is_ok());
  cluster->start();
  cluster->simulator().run_until(cluster->simulator().now() + SimTime::seconds(1.0));

  const std::size_t before = cluster->rm(0).disk().file_count();
  ASSERT_GT(before, 0u);

  std::size_t migrated = 0;
  std::size_t failed = 0;
  cluster->replication().drain(cluster->rm(0), [&](std::size_t ok, std::size_t bad) {
    migrated = ok;
    failed = bad;
  });
  cluster->simulator().run();

  EXPECT_EQ(cluster->rm(0).disk().file_count(), 0u);
  EXPECT_EQ(migrated, before);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(cluster->replication().migrations_in_flight(), 0u);
  EXPECT_EQ(cluster->replication().counters().drains_completed, 1u);

  // Not one shard lost: every stripe is fully live in the MM and the whole
  // quiescent invariant catalog (stripe/rebalance conservation included)
  // holds on the post-drain cluster.
  cluster->mm().for_each_stripe(
      [](dfs::FileId base, const dfs::MetadataManager::StripeInfo& stripe) {
        EXPECT_EQ(stripe.live_shards(), stripe.shards.size()) << "stripe " << base;
        EXPECT_FALSE(stripe.degraded) << "stripe " << base;
      });
  check::InvariantAuditor auditor{*cluster};
  EXPECT_TRUE(auditor.audit_quiescent().empty());
}

TEST(Rebalance, ConcurrentDrainsOfOneRmMoveEachKeyOnce) {
  // Two drains of RM0 snapshot the same key list. The second must skip the
  // shard the first is already moving: migrating it again would land a
  // second copy after the source's is gone, leaving shard 0 on two disks
  // for good. Eight RMs leave two legal destinations outside the stripe.
  dfs::ClusterConfig cfg = six_rm_config();
  for (int r = 7; r <= 8; ++r) {
    cfg.rms.push_back(dfs::RmSpec{"RM" + std::to_string(r), Bandwidth::mbps(10.0),
                                  Bytes::gib(1.0), static_cast<std::size_t>((r - 1) % 2)});
  }
  auto cluster = testing::make_small_cluster(std::move(cfg), testing::tiny_catalog(1));
  ASSERT_TRUE(cluster->place_stripe(1, 4, 2, {0, 1, 2, 3, 4, 5}).is_ok());
  cluster->start();
  cluster->simulator().run_until(cluster->simulator().now() + SimTime::seconds(1.0));

  std::vector<std::pair<std::size_t, std::size_t>> outcomes;  // (migrated, failed)
  for (int i = 0; i < 2; ++i) {
    cluster->replication().drain(cluster->rm(0), [&](std::size_t ok, std::size_t bad) {
      outcomes.emplace_back(ok, bad);
    });
  }
  cluster->simulator().run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].first + outcomes[1].first, 1u) << "the shard moved twice";
  EXPECT_EQ(outcomes[0].second + outcomes[1].second, 0u);
  EXPECT_EQ(cluster->replication().counters().migrations_started, 1u);
  EXPECT_EQ(cluster->replication().migrations_in_flight(), 0u);

  const dfs::FileId shard0 = storage::shard_key::pack(1, 0, 4, 2);
  std::size_t disks = 0;
  for (std::size_t i = 0; i < cluster->rm_count(); ++i) {
    if (cluster->rm(i).disk().contains(shard0)) ++disks;
  }
  EXPECT_EQ(disks, 1u);
  EXPECT_FALSE(cluster->rm(0).disk().contains(shard0));
  EXPECT_EQ(cluster->mm().stripe_of(1)->shards[0].size(), 1u);
  check::InvariantAuditor auditor{*cluster};
  EXPECT_TRUE(auditor.audit_quiescent().empty());
}

TEST(Rebalance, RebalanceOnceMovesAShardOffTheFullestRm) {
  // EC(2,1) stripes that overlap only on RM0: it holds two shards while
  // RM5 holds none, so one rebalance step must move exactly one shard off
  // the fullest disk (anti-affinity keeps it away from each stripe's own
  // RMs — the union exclusion leaves {3,4,5} / {1,2,5} as destinations).
  auto cluster = testing::make_small_cluster(six_rm_config(), testing::tiny_catalog(2));
  ASSERT_TRUE(cluster->place_stripe(1, 2, 1, {0, 1, 2}).is_ok());
  ASSERT_TRUE(cluster->place_stripe(2, 2, 1, {0, 3, 4}).is_ok());
  cluster->start();
  cluster->simulator().run_until(cluster->simulator().now() + SimTime::seconds(1.0));

  const Bytes used_before = cluster->rm(0).disk().used();
  ASSERT_TRUE(cluster->replication().rebalance_once());
  cluster->simulator().run();

  EXPECT_LT(cluster->rm(0).disk().used().count(), used_before.count());
  EXPECT_EQ(cluster->replication().counters().migrations_completed, 1u);
  EXPECT_EQ(cluster->replication().migrations_in_flight(), 0u);
  check::InvariantAuditor auditor{*cluster};
  EXPECT_TRUE(auditor.audit_quiescent().empty());
}

TEST(EcFuzz, EcSeedsHoldInvariantsAndReplayByteIdentically) {
  check::FuzzOptions options;
  options.seed = 5;
  options.layout = storage::LayoutPolicy::erasure(2, 1);
  const check::FuzzResult a = check::OpFuzzer{options}.run();
  const check::FuzzResult b = check::OpFuzzer{options}.run();
  EXPECT_TRUE(a.ok()) << a.report();
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_NE(a.repro_line().find("--layout=ec:2,1"), std::string::npos);
}

}  // namespace
}  // namespace sqos
