#include "dfs/replication_agent.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/replication_planner.hpp"
#include "obs/recorder.hpp"
#include "storage/stripe_layout.hpp"
#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

// A cluster where RM2 (10 Mbit/s) is easy to push below B_TH = 2 Mbit/s by
// streaming file 4 (4 Mbit/s) twice, while RM1 (40 Mbit/s) sits idle as the
// natural replication destination.
class ReplicationAgentTest : public ::testing::Test {
 protected:
  void build(core::ReplicationConfig rep, core::AllocationMode mode = core::AllocationMode::kSoft) {
    ClusterConfig cfg = sqos::testing::small_cluster_config();
    cfg.mode = mode;
    cfg.replication = rep;
    cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
    cluster_->start();
    cluster_->simulator().run();
  }

  void overload_rm2_with_file4() {
    ASSERT_TRUE(cluster_->place_replica(1, 4).is_ok());
    // Two 4 Mbit/s streams leave 2 Mbit/s = 20 % of 10 Mbit/s; the paper
    // trigger requires *lower than* B_TH, so add a third request.
    for (int i = 0; i < 3; ++i) cluster_->client(0).stream_file(4);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ReplicationAgentTest, TriggersAndCopiesToIdleRm) {
  build(core::ReplicationConfig::rep(1, 3));
  overload_rm2_with_file4();
  cluster_->simulator().run();
  const auto& c = cluster_->replication().counters();
  EXPECT_GE(c.rounds_started, 1u);
  EXPECT_EQ(c.copies_completed, 1u);
  // File 4 had N_CUR = 1 < N_MAXR = 3: plain copy, no self-delete.
  EXPECT_EQ(c.self_deletes, 0u);
  EXPECT_EQ(cluster_->mm().replica_count(4), 2u);
  // The destination actually stores the file.
  EXPECT_TRUE(cluster_->rm(0).has_replica(4) || cluster_->rm(2).has_replica(4));
}

TEST_F(ReplicationAgentTest, StaticConfigNeverTriggers) {
  build(core::ReplicationConfig::static_only());
  overload_rm2_with_file4();
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->replication().counters().rounds_started, 0u);
  EXPECT_EQ(cluster_->mm().replica_count(4), 1u);
}

TEST_F(ReplicationAgentTest, MigrationDeletesSourceReplicaAtBound) {
  // N_MAXR = 1 with the file already at 1 replica: the round must migrate —
  // one copy plus a source self-delete.
  build(core::ReplicationConfig::rep(1, 1));
  overload_rm2_with_file4();
  cluster_->simulator().run();
  const auto& c = cluster_->replication().counters();
  EXPECT_EQ(c.copies_completed, 1u);
  EXPECT_EQ(c.self_deletes, 1u);
  EXPECT_EQ(cluster_->mm().replica_count(4), 1u);
  EXPECT_FALSE(cluster_->rm(1).has_replica(4));
}

TEST_F(ReplicationAgentTest, CooldownLimitsRounds) {
  build(core::ReplicationConfig::rep(1, 3));
  ASSERT_TRUE(cluster_->place_replica(1, 4).is_ok());
  // Keep RM2 pinned below the threshold with a burst of streams.
  for (int i = 0; i < 6; ++i) cluster_->client(0).stream_file(4);
  cluster_->simulator().run_until(SimTime::seconds(30.0));
  // All requests arrive within ~1 s; one round within the 60 s cooldown.
  EXPECT_EQ(cluster_->replication().counters().rounds_started, 1u);
}

TEST_F(ReplicationAgentTest, DestinationBelowThresholdRejects) {
  build(core::ReplicationConfig::rep(1, 3));
  ASSERT_TRUE(cluster_->place_replica(1, 4).is_ok());
  ASSERT_TRUE(cluster_->place_replica(2, 4).is_ok());
  // Saturate every potential destination: RM1 (40) with file 3 x14 streams
  // (42 Mbit/s soft) and RM3 with file 4 streams.
  ASSERT_TRUE(cluster_->place_replica(0, 3).is_ok());
  for (int i = 0; i < 14; ++i) cluster_->client(0).stream_file(3);
  for (int i = 0; i < 6; ++i) cluster_->client(0).stream_file(4);
  cluster_->simulator().run();
  const auto& c = cluster_->replication().counters();
  // Rounds fired but every destination rejected (b_rem below B_TH/B_REV) —
  // or the only non-holder was saturated.
  EXPECT_GE(c.destination_rejects, 1u);
}

TEST_F(ReplicationAgentTest, ReplicaCountNeverExceedsBound) {
  build(core::ReplicationConfig::rep(2, 2));
  overload_rm2_with_file4();
  cluster_->simulator().run();
  EXPECT_LE(cluster_->mm().replica_count(4), 2u);
}

TEST_F(ReplicationAgentTest, TransferTakesFileSizeOverSpeed) {
  build(core::ReplicationConfig::rep(1, 3));
  overload_rm2_with_file4();
  // file 4: 4 Mbit/s x 100 s = 50 MB; at 1.8 Mbit/s the copy needs ~222 s.
  cluster_->simulator().run_until(SimTime::seconds(100.0));
  EXPECT_EQ(cluster_->replication().counters().copies_completed, 0u);
  EXPECT_GT(cluster_->rm(1).replication_lane_rate().bps(), 0.0);
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->replication().counters().copies_completed, 1u);
  EXPECT_EQ(cluster_->rm(1).replication_lane_rate(), Bandwidth::zero());
}

TEST_F(ReplicationAgentTest, LowBitrateFilesAreNotSourceEligible) {
  // B_REV = 2 x 1 Mbit/s = 2 Mbit/s > 1.8 Mbit/s transfer speed, so file 1
  // qualifies; but a 0.5 Mbit/s file would not. Verify via core helper here
  // and end-to-end: a round for an ineligible-only heat set stays empty.
  core::ReplicationConfig cfg = core::ReplicationConfig::rep(1, 3);
  EXPECT_TRUE(core::source_eligible(cfg, Bandwidth::mbps(1.0)));
  EXPECT_FALSE(core::source_eligible(cfg, Bandwidth::mbps(0.5)));
}

/// The quoted string that follows `key` in one line of a rendered trace.
std::string field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":\"");
  if (at == std::string::npos) return {};
  const std::size_t from = at + key.size() + 4;
  return line.substr(from, line.find('"', from) - from);
}

TEST(ReplicationAgentTrace, DrainShowsOnTheReplicationTrack) {
  // A traced drain of RM1's EC(2,1) shard: the drain and its copy land on
  // the existing replication track, and no track is added for them.
  auto cluster = sqos::testing::make_small_cluster(sqos::testing::six_rm_config(),
                                                   sqos::testing::tiny_catalog(1));
  obs::Recorder recorder{cluster->simulator()};
  cluster->attach_observability(recorder);
  ASSERT_TRUE(cluster->place_stripe(1, 2, 1, {0, 1, 2}).is_ok());
  cluster->start();
  cluster->simulator().run();
  cluster->replication().drain(cluster->rm(0));
  cluster->simulator().run();

  std::vector<std::string> tracks;
  std::vector<std::string> replication;
  std::string copy;
  std::istringstream lines{recorder.trace.to_json()};
  for (std::string line; std::getline(lines, line);) {
    if (field(line, "name") == "thread_name") {
      tracks.push_back(field(line.substr(line.find("\"args\"")), "name"));
    } else if (line.find("\"tid\":7,\"ts\"") != std::string::npos) {  // replication
      replication.push_back(field(line, "name"));
      if (replication.back() == "copy") copy = line;
    }
  }
  const std::vector<std::string> want_tracks{"DFSC1", "RM1", "RM2",         "RM3", "RM4",
                                             "RM5",   "RM6", "replication", "MM1"};
  EXPECT_EQ(tracks, want_tracks);
  const std::vector<std::string> want_events{"drain_start", "copy", "drain"};
  EXPECT_EQ(replication, want_events);
  EXPECT_EQ(field(copy, "outcome"), "stored");
  EXPECT_EQ(field(copy, "cat"), "replication");
}

// --- lost and refused move legs ------------------------------------------------
//
// Each row crashes, cuts or fills one party of a replica move and pins how
// the move ends and when. Round rows run one §V round on RM2 (file 4, 50 MB,
// held by RM2 only, pushed over the trigger by three streams); drain rows
// drain RM1's shard of an EC(2,1) stripe on RM1-RM3 of the six-RM fixture.
// The settle time (the round's source-role release, or the drain's
// callback) is asserted as transfers x transfer time + deadlines x
// round_timeout from the start of the access or drain, within the
// control-message latency the legs add.

struct MoveLeg {
  const char* name;
  bool drain;
  bool rep11;                             // rounds: Rep(1,1) instead of Rep(1,3)
  std::vector<std::size_t> small_disks;   // RMs given a 1 MB disk
  SimTime fault_at;                       // zero: before the round or drain
  std::function<void(Cluster&)> fault;
  std::int64_t transfers;       // whole transfer times on the critical path
  std::int64_t deadlines;       // round_timeout slacks on the critical path
  std::size_t migrated;         // drains: keys the callback reports moved
  std::function<void(Cluster&)> check;
};

constexpr SimTime kMoveLatencyBound = SimTime::millis(5);
const FileId kShard0 = storage::shard_key::pack(1, 0, 2, 1);

void cut_from_mm(Cluster& c, std::size_t rm) {
  c.network().set_link_down(c.rm(rm).node_id(), c.mm().shard(0).node_id());
}

std::size_t disks_holding(const Cluster& c, FileId key) {
  std::size_t disks = 0;
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    if (c.rm(i).disk().contains(key)) ++disks;
  }
  return disks;
}

std::vector<MoveLeg> move_legs() {
  const auto fail_rms = [](std::vector<std::size_t> rms) {
    return [rms](Cluster& c) {
      for (const std::size_t rm : rms) c.fail_rm(rm);
    };
  };
  const auto one_reject = [](Cluster& c) {
    const ReplicationAgent::Counters& k = c.replication().counters();
    EXPECT_EQ(k.destination_rejects, 1u);
    EXPECT_EQ(k.copies_started, 0u);
  };
  return {
      // The request is lost at a dead destination: it counts as a reject.
      {"round_dest_dead", false, false, {}, {}, fail_rms({0, 2}), 0, 0, 0, one_reject},
      // No room for 50 MB: the destination rejects.
      {"round_dest_disk_full", false, false, {0, 2}, {}, {}, 0, 0, 0, one_reject},
      // The commit is lost: the copy counts as completed and sits on the
      // destination's disk, but the MM still lists RM2 alone.
      {"round_commit_lost", false, false, {}, SimTime::seconds(10.0),
       [](Cluster& c) {
         cut_from_mm(c, 0);
         cut_from_mm(c, 2);
       },
       1, 0, 0,
       [](Cluster& c) {
         EXPECT_EQ(c.replication().counters().copies_completed, 1u);
         EXPECT_EQ(c.mm().replica_count(4), 1u);
         EXPECT_TRUE(c.rm(0).has_replica(4) || c.rm(2).has_replica(4));
       }},
      // A migrating round's only copy aborts: the source keeps its replica.
      {"round_rep11_dest_crash", false, true, {}, SimTime::seconds(60.0), fail_rms({0, 2}), 1,
       0, 0,
       [](Cluster& c) {
         const ReplicationAgent::Counters& k = c.replication().counters();
         EXPECT_EQ(k.copies_failed, 1u);
         EXPECT_EQ(k.self_deletes, 0u);
         EXPECT_TRUE(c.rm(1).has_replica(4));
       }},
      {"drain_dest_dead", true, false, {}, {}, fail_rms({3, 4, 5}), 0, 0, 0, {}},
      {"drain_dest_disk_full", true, false, {3, 4, 5}, {}, {}, 0, 0, 0, {}},
      // The copy aborts when it lands; the shard stays on RM1 alone.
      {"drain_dest_crash", true, false, {}, SimTime::seconds(10.0), fail_rms({3, 4, 5}), 1, 0,
       0,
       [](Cluster& c) {
         EXPECT_EQ(disks_holding(c, kShard0), 1u);
         EXPECT_TRUE(c.rm(0).disk().contains(kShard0));
       }},
      {"drain_source_crash", true, false, {}, SimTime::seconds(10.0), fail_rms({0}), 1, 0, 0,
       {}},
      // No replica-list reply: only the per-key deadline settles the key.
      {"drain_source_cut_from_mm", true, false, {}, {},
       [](Cluster& c) { cut_from_mm(c, 0); }, 1, 1, 0, {}},
      // The commit is lost, so the delete never goes out: shard 0 stays on
      // two disks and the MM lists RM1 alone.
      {"drain_commit_lost", true, false, {}, SimTime::seconds(10.0),
       [](Cluster& c) {
         for (std::size_t rm = 3; rm < 6; ++rm) cut_from_mm(c, rm);
       },
       1, 1, 0,
       [](Cluster& c) {
         EXPECT_EQ(disks_holding(c, kShard0), 2u);
         EXPECT_TRUE(c.rm(0).disk().contains(kShard0));
         const MetadataManager::HolderSet& holders = c.mm().stripe_of(1)->shards[0];
         EXPECT_EQ(holders.size(), 1u);
         EXPECT_TRUE(holders.contains(c.rm(0).node_id()));
       }},
      // The delete is lost: the shard moves, but the MM keeps RM1 listed
      // beside the destination until anti-entropy runs.
      {"drain_delete_lost", true, false, {}, SimTime::seconds(10.0),
       [](Cluster& c) { cut_from_mm(c, 0); }, 1, 0, 1,
       [](Cluster& c) {
         EXPECT_EQ(disks_holding(c, kShard0), 1u);
         EXPECT_FALSE(c.rm(0).disk().contains(kShard0));
         EXPECT_EQ(c.mm().stripe_of(1)->shards[0].size(), 2u);
       }},
  };
}

class MoveLegTest : public ::testing::TestWithParam<MoveLeg> {};

TEST_P(MoveLegTest, SettlesAtTransfersPlusRoundTimeouts) {
  const MoveLeg& leg = GetParam();
  ClusterConfig cfg = leg.drain ? sqos::testing::six_rm_config()
                                : sqos::testing::small_cluster_config();
  if (!leg.drain) {
    cfg.mode = core::AllocationMode::kSoft;
    cfg.replication = leg.rep11 ? core::ReplicationConfig::rep(1, 1)
                                : core::ReplicationConfig::rep(1, 3);
  }
  for (const std::size_t rm : leg.small_disks) cfg.rms[rm].disk_capacity = Bytes::of(1'000'000);
  auto cluster = sqos::testing::make_small_cluster(
      std::move(cfg), sqos::testing::tiny_catalog(leg.drain ? 1 : 4));
  if (leg.drain) {
    ASSERT_TRUE(cluster->place_stripe(1, 2, 1, {0, 1, 2}).is_ok());
  }
  cluster->start();
  sim::Simulator& sim = cluster->simulator();
  sim.run();
  if (!leg.drain) {
    ASSERT_TRUE(cluster->place_replica(1, 4).is_ok());
  }

  const SimTime start = sim.now();
  if (leg.fault) {
    if (leg.fault_at == SimTime::zero()) {
      leg.fault(*cluster);
    } else {
      sim.schedule_at(start + leg.fault_at, [&] { leg.fault(*cluster); });
    }
  }

  Bytes moved;
  SimTime settled;
  if (leg.drain) {
    moved = cluster->rm(0).disk().size_of(kShard0);
    int calls = 0;
    std::size_t migrated = 0;
    std::size_t failed = 0;
    cluster->replication().drain(cluster->rm(0), [&](std::size_t ok, std::size_t bad) {
      ++calls;
      migrated = ok;
      failed = bad;
      settled = sim.now();
    });
    sim.run();
    ASSERT_EQ(calls, 1);
    EXPECT_EQ(migrated, leg.migrated);
    EXPECT_EQ(migrated + failed, 1u);
  } else {
    moved = cluster->directory().get(4).size;
    for (int i = 0; i < 3; ++i) cluster->client(0).stream_file(4);
    sim.run();
    EXPECT_EQ(cluster->replication().counters().rounds_started, 1u);
    EXPECT_FALSE(cluster->rm(1).trigger().is_source());
    settled = cluster->rm(1).trigger().last_replication();
  }

  const core::ReplicationConfig& rep = cluster->config().replication;
  const SimTime expected = rep.transfer_speed.time_to_transfer(moved) * leg.transfers +
                           rep.round_timeout * leg.deadlines;
  EXPECT_GE(settled - start, expected);
  EXPECT_LT(settled - start, expected + kMoveLatencyBound);
  if (leg.check) leg.check(*cluster);
}

INSTANTIATE_TEST_SUITE_P(MoveLegs, MoveLegTest, ::testing::ValuesIn(move_legs()),
                         [](const ::testing::TestParamInfo<MoveLeg>& param) {
                           return std::string{param.param.name};
                         });

}  // namespace
}  // namespace sqos::dfs
