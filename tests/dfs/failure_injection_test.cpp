// Failure injection: RM crashes and lost messages during every protocol phase
// must degrade gracefully — timed-out negotiations, aborted streams,
// cancelled copies — never hangs, double-frees or broken invariants;
// recovery re-registers the surviving disk contents.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "testing/test_cluster.hpp"

namespace sqos::dfs {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  void build(core::AllocationMode mode = core::AllocationMode::kFirm,
             core::ReplicationConfig rep = core::ReplicationConfig::static_only()) {
    ClusterConfig cfg = sqos::testing::small_cluster_config();
    cfg.mode = mode;
    cfg.replication = rep;
    cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
    cluster_->start();
    cluster_->simulator().run();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FailureInjectionTest, OpenSurvivesOneDeadHolder) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  cluster_->fail_rm(1);

  bool ok = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) { ok = s.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(ok);
  // The negotiation was decided by the bid timeout, not by a hang.
  EXPECT_EQ(cluster_->client(0).counters().bid_timeouts, 1u);
  EXPECT_EQ(cluster_->rm(0).counters().streams_completed, 1u);
}

TEST_F(FailureInjectionTest, OpenFailsCleanlyWhenAllHoldersDead) {
  build();
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(2, 1).is_ok());
  cluster_->fail_rm(1);
  cluster_->fail_rm(2);

  Status result;
  bool called = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) {
    called = true;
    result = s;
  });
  cluster_->simulator().run();
  ASSERT_TRUE(called) << "open must not hang";
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_EQ(cluster_->client(0).counters().opens_failed, 1u);
}

TEST_F(FailureInjectionTest, CrashMidStreamAbortsTheTransfer) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  Status result;
  bool called = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) {
    called = true;
    result = s;
  });
  // file 1 streams for 100 s; crash the serving RM at t = 50 s.
  cluster_->simulator().schedule_at(SimTime::seconds(50.0), [&] { cluster_->fail_rm(0); });
  cluster_->simulator().run();
  ASSERT_TRUE(called);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(cluster_->rm(0).allocated(), Bandwidth::zero());
  EXPECT_EQ(cluster_->rm(0).counters().streams_completed, 0u);
}

TEST_F(FailureInjectionTest, CrashBetweenBidAndDataRequestIsRefused) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  // Crash after the bid round trip (~1 ms) but before the client's data
  // request lands: connection refused, the open fails.
  cluster_->simulator().schedule_at(SimTime::micros(1400), [&] { cluster_->fail_rm(0); });
  Status result;
  cluster_->client(0).stream_file(1, [&](const Status& s) { result = s; });
  cluster_->simulator().run();
  EXPECT_FALSE(result.is_ok());
}

TEST_F(FailureInjectionTest, RecoveryReRegistersSurvivingReplicas) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(0, 2).is_ok());
  cluster_->fail_rm(0);
  // Stale MM entry still lists the dead holder; opens fail via timeout.
  Status first;
  cluster_->client(0).stream_file(1, [&](const Status& s) { first = s; });
  cluster_->simulator().run();
  EXPECT_FALSE(first.is_ok());

  cluster_->recover_rm(0);
  cluster_->simulator().run();
  EXPECT_TRUE(cluster_->mm().is_registered(cluster_->rm(0).node_id()));
  EXPECT_EQ(cluster_->mm().replica_count(1), 1u);  // disk contents survived

  bool ok = false;
  cluster_->client(0).stream_file(1, [&](const Status& s) { ok = s.is_ok(); });
  cluster_->simulator().run();
  EXPECT_TRUE(ok);
}

TEST_F(FailureInjectionTest, FailClearsVolatileStateOnly) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  cluster_->client(0).stream_file(1);
  cluster_->simulator().run_until(SimTime::seconds(10.0));
  EXPECT_GT(cluster_->rm(0).allocated().bps(), 0.0);
  EXPECT_GT(cluster_->rm(0).heat().total_accesses(), 0u);

  cluster_->fail_rm(0);
  EXPECT_FALSE(cluster_->rm(0).is_online());
  EXPECT_EQ(cluster_->rm(0).allocated(), Bandwidth::zero());
  EXPECT_EQ(cluster_->rm(0).heat().total_accesses(), 0u);
  EXPECT_TRUE(cluster_->rm(0).has_replica(1));  // disk survives
  EXPECT_EQ(cluster_->rm(0).occupation().file_count(), 1u);
  cluster_->simulator().run();
}

TEST_F(FailureInjectionTest, ReplicationCopyAbortsWhenDestinationDies) {
  build(core::AllocationMode::kSoft, core::ReplicationConfig::rep(1, 3));
  ASSERT_TRUE(cluster_->place_replica(1, 4).is_ok());
  for (int i = 0; i < 3; ++i) cluster_->client(0).stream_file(4);
  // The copy takes ~222 s at 1.8 Mbit/s; kill every possible destination
  // while it is in flight.
  cluster_->simulator().schedule_at(SimTime::seconds(60.0), [&] {
    cluster_->fail_rm(0);
    cluster_->fail_rm(2);
  });
  cluster_->simulator().run();
  const auto& c = cluster_->replication().counters();
  EXPECT_EQ(c.copies_completed, 0u);
  EXPECT_GE(c.copies_started, 1u);
  EXPECT_GE(c.copies_failed, 1u);
  EXPECT_EQ(cluster_->mm().replica_count(4), 1u);  // no phantom replica
}

TEST_F(FailureInjectionTest, ReplicationSourceCrashAbortsItsRound) {
  build(core::AllocationMode::kSoft, core::ReplicationConfig::rep(1, 3));
  ASSERT_TRUE(cluster_->place_replica(1, 4).is_ok());
  for (int i = 0; i < 3; ++i) cluster_->client(0).stream_file(4);
  cluster_->simulator().schedule_at(SimTime::seconds(60.0), [&] { cluster_->fail_rm(1); });
  cluster_->simulator().run();
  EXPECT_EQ(cluster_->replication().counters().copies_completed, 0u);
  // No RM is left holding a half-copied pending state.
  for (std::size_t i = 0; i < cluster_->rm_count(); ++i) {
    EXPECT_FALSE(cluster_->rm(i).trigger().is_destination()) << "RM" << i + 1;
    EXPECT_EQ(cluster_->rm(i).replication_lane_rate(), Bandwidth::zero()) << "RM" << i + 1;
  }
}

TEST_F(FailureInjectionTest, FirmInvariantHoldsAcrossCrashRecoverCycles) {
  build();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());
  ASSERT_TRUE(cluster_->place_replica(1, 1).is_ok());
  // Continuous load with repeated crash/recover of RM2.
  for (int i = 0; i < 20; ++i) {
    cluster_->simulator().schedule_at(SimTime::seconds(5.0 + 10.0 * i),
                                      [&] { cluster_->client(0).stream_file(1); });
  }
  cluster_->simulator().schedule_at(SimTime::seconds(30.0), [&] { cluster_->fail_rm(1); });
  cluster_->simulator().schedule_at(SimTime::seconds(90.0), [&] { cluster_->recover_rm(1); });
  cluster_->simulator().schedule_at(SimTime::seconds(150.0), [&] { cluster_->fail_rm(1); });
  cluster_->simulator().run();

  for (std::size_t i = 0; i < cluster_->rm_count(); ++i) {
    cluster_->rm(i).ledger().advance_to(cluster_->simulator().now());
    EXPECT_DOUBLE_EQ(cluster_->rm(i).ledger().overallocated_bytes(), 0.0) << "RM" << i + 1;
  }
}

TEST_F(FailureInjectionTest, LateBidsAfterTimeoutAreDropped) {
  // Plain CNP broadcasts the CFP to all three RMs, and 50 us of latency
  // jitter spreads the bids around a 500 us deadline: under seed 42 two bids
  // beat it and the third lands after the decision. The late bid must be
  // dropped, not counted and not evaluated a second time.
  ClusterConfig cfg = sqos::testing::small_cluster_config();
  cfg.negotiation = NegotiationModel::kCnp;
  cfg.latency.jitter_mean = SimTime::micros(50);
  cfg.bid_timeout = SimTime::micros(500);
  cluster_ = sqos::testing::make_small_cluster(std::move(cfg));
  cluster_->start();
  cluster_->simulator().run();
  ASSERT_TRUE(cluster_->place_replica(0, 1).is_ok());

  Status result;
  int calls = 0;
  cluster_->client(0).stream_file(1, [&](const Status& s) {
    ++calls;
    result = s;
  });
  cluster_->simulator().run();

  const DfsClient::Counters& c = cluster_->client(0).counters();
  std::uint64_t answered = 0;
  std::uint64_t data_requests = 0;
  for (std::size_t i = 0; i < cluster_->rm_count(); ++i) {
    answered += cluster_->rm(i).counters().cfps_answered;
    data_requests += cluster_->rm(i).counters().data_requests;
  }
  EXPECT_GT(c.cfps_sent, 0u);
  EXPECT_GT(answered, c.bids_received) << "no answered bid was dropped as late";
  EXPECT_EQ(c.bid_timeouts, 1u);
  EXPECT_EQ(data_requests, 1u);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(result.is_ok()) << result.to_string();
}

// --- lost and refused legs ----------------------------------------------------
//
// Each row cuts or crashes one leg of an access once the bids are on the
// wire, and pins how the access ends and when: a lost message settles at its
// deadline (expected time + bid_timeout), a dead host through its refusal.
// The settle time is asserted as transfers x transfer time + deadlines x
// bid_timeout from the start of the access, within the control-message
// latency the legs add.

enum class Access : std::uint8_t { kRead, kWrite, kOpen };

struct Leg {
  const char* name;
  Access access;
  bool striped;  // the six-RM EC(4,2) fixture instead of the three-RM cluster
  std::function<void(Cluster&)> before;      // at the start of the access
  std::function<void(Cluster&)> after_bids;  // between the bid sends and arrivals
  StatusCode code;
  std::int64_t transfers;     // whole transfer times on the critical path
  std::int64_t bid_timeouts;  // bid_timeout slacks on the critical path
  std::function<void(Cluster&)> check;
};

constexpr FileId kFreshFile = 100;  // 1 MB at 1 Mbit/s: an 8 s write
// Jitter-free hops take ~200 us: the exploration round trip ends at ~400 us,
// the RMs send their bids at ~600 us and the client sees them at ~800 us.
constexpr SimTime kAfterBids = SimTime::micros(700);
constexpr SimTime kLatencyBound = SimTime::millis(5);

net::NodeId mm_node(Cluster& c) { return c.mm().shard(0).node_id(); }

void cut(Cluster& c, std::size_t rm) {
  c.network().set_link_down(c.client(0).node_id(), c.rm(rm).node_id());
}

std::vector<Leg> legs() {
  const auto stripe_survivors_served = [](Cluster& c) {
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(c.rm(i).counters().streams_completed, 1u) << "RM" << i + 1;
    }
  };
  const auto copy_on_rm3 = [](Cluster& c) {
    EXPECT_FALSE(c.rm(0).has_replica(kFreshFile));
    EXPECT_FALSE(c.rm(1).has_replica(kFreshFile));
    EXPECT_TRUE(c.rm(2).has_replica(kFreshFile));
    EXPECT_EQ(c.mm().replica_count(kFreshFile), 1u);
  };
  return {
      // The data request to the only holder is lost; the read's data-phase
      // deadline fails it. (The reported cause, an RM-side rejection, is
      // wrong for a lost request: ROADMAP item 5.)
      {"read_cut_from_winner", Access::kRead, false, {}, [](Cluster& c) { cut(c, 0); },
       StatusCode::kResourceExhausted, 1, 1, {}},
      // Both best-ranked targets are unreachable: two data-phase deadlines
      // pass before failover lands the copy on RM3.
      {"write_cut_from_two_best", Access::kWrite, false, {},
       [](Cluster& c) {
         cut(c, 0);
         cut(c, 1);
       },
       StatusCode::kOk, 3, 2, copy_on_rm3},
      // Both best-ranked targets crashed: two refusals, then failover.
      {"write_two_best_crash", Access::kWrite, false, {},
       [](Cluster& c) {
         c.fail_rm(0);
         c.fail_rm(1);
       },
       StatusCode::kOk, 1, 0, copy_on_rm3},
      // The MM commit is lost: the write still settles, at the commit
      // deadline, and the MM never learns of the replica.
      {"write_commit_lost", Access::kWrite, false, {},
       [](Cluster& c) { c.network().set_link_down(c.client(0).node_id(), mm_node(c)); },
       StatusCode::kOk, 1, 1,
       [](Cluster& c) { EXPECT_EQ(c.mm().replica_count(kFreshFile), 0u); }},
      // An explicit session's holder crashed: the data request is refused.
      {"open_holder_crash", Access::kOpen, false, {}, [](Cluster& c) { c.fail_rm(0); },
       StatusCode::kResourceExhausted, 0, 0, {}},
      // No layout reply: the exploration deadline fails the striped read
      // before any CFP goes out.
      {"striped_mm_cut",
       Access::kRead,
       true,
       [](Cluster& c) { c.network().set_link_down(c.client(0).node_id(), mm_node(c)); },
       {},
       StatusCode::kUnavailable,
       0,
       1,
       [](Cluster& c) {
         const DfsClient::Counters& k = c.client(0).counters();
         EXPECT_EQ(k.cfps_sent, 0u);
         EXPECT_EQ(k.bid_timeouts, 1u);
         EXPECT_EQ(k.ec_failed_reads, 1u);
       }},
      // Data shard 0's request is lost: its sub-stream deadline fails the
      // read after the other holders served their shards.
      {"striped_cut_from_chosen_holder", Access::kRead, true, {},
       [](Cluster& c) { cut(c, 0); }, StatusCode::kUnavailable, 1, 1,
       stripe_survivors_served},
      // Data shard 0's holder crashed: its refusal marks the read failed,
      // which settles when the last sub-stream completes.
      {"striped_chosen_holder_crash", Access::kRead, true, {},
       [](Cluster& c) { c.fail_rm(0); }, StatusCode::kUnavailable, 1, 0,
       stripe_survivors_served},
  };
}

class DeadlineLegTest : public ::testing::TestWithParam<Leg> {};

TEST_P(DeadlineLegTest, SettlesAtTransferPlusBidTimeouts) {
  const Leg& leg = GetParam();
  std::unique_ptr<Cluster> cluster;
  if (leg.striped) {
    cluster = sqos::testing::make_ec_cluster();
  } else {
    cluster = sqos::testing::make_small_cluster();
    cluster->start();
    cluster->simulator().run();
    ASSERT_TRUE(cluster->place_replica(0, 1).is_ok());
    FileMeta fresh;
    fresh.id = kFreshFile;
    fresh.name = "fresh";
    fresh.bitrate = Bandwidth::mbps(1.0);
    fresh.size = Bytes::of(1'000'000);
    ASSERT_TRUE(cluster->add_file(fresh).is_ok());
  }
  const FileId file = leg.access == Access::kWrite ? kFreshFile : 1;
  sim::Simulator& sim = cluster->simulator();
  const SimTime start = sim.now();
  if (leg.before) leg.before(*cluster);
  if (leg.after_bids) sim.schedule_at(start + kAfterBids, [&] { leg.after_bids(*cluster); });

  int calls = 0;
  Status result;
  SimTime settled;
  const auto record = [&](const Status& s) {
    ++calls;
    result = s;
    settled = sim.now();
  };
  DfsClient& client = cluster->client(0);
  switch (leg.access) {
    case Access::kRead:
      client.stream_file(file, record);
      break;
    case Access::kWrite:
      client.write_file(file, 1, record);
      break;
    case Access::kOpen:
      client.open(file, [&](const Result<std::uint64_t>& r) {
        record(r.is_ok() ? Status::ok() : r.status());
      });
      break;
  }
  sim.run();

  ASSERT_EQ(calls, 1);
  EXPECT_EQ(result.code(), leg.code) << result.to_string();
  const SimTime expected = cluster->directory().get(file).duration() * leg.transfers +
                           cluster->config().bid_timeout * leg.bid_timeouts;
  EXPECT_GE(settled - start, expected);
  EXPECT_LT(settled - start, expected + kLatencyBound);
  if (leg.check) leg.check(*cluster);
}

INSTANTIATE_TEST_SUITE_P(Legs, DeadlineLegTest, ::testing::ValuesIn(legs()),
                         [](const ::testing::TestParamInfo<Leg>& param) {
                           return std::string{param.param.name};
                         });

}  // namespace
}  // namespace sqos::dfs
