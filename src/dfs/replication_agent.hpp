// Replica moves: dynamic replication (§V) and drains.
//
// A move is one two-party session, run by one set of legs: the source asks
// the owning MM shard which RMs lack the key (ask_non_holders), the chosen
// destination admits or rejects the copy (request_copy), the copy runs at
// the transfer speed on both RMs' replication lanes (transfer), and the
// destination commits the new replica to the MM (commit). Two planners drive
// those legs:
//
//  * A §V round, when an RM's trigger fires: it (1) ranks the RM's busiest
//    files (the N_BF cover), (2) asks for each file's non-holders, (3) clamps
//    the per-round copy count against N_MAXR, (4) selects destinations with
//    the configured strategy, and (5) after a file's last copy performs the
//    over-bound source self-delete.
//  * A drain, ahead of maintenance: it moves every key on an RM, whole-file
//    replicas and EC shards alike, one at a time; rebalance_once() moves one
//    key off the fullest disk. The source deletes its copy only once the
//    destination's commit has landed (add-before-remove), which is what the
//    rebalance-conservation invariant audits. For a shard key the MM lists
//    every holder of the stripe, so the destination pool excludes the
//    stripe's other participants (anti-affinity survives the move).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/destination_selector.hpp"
#include "core/replication_config.hpp"
#include "dfs/mm_directory.hpp"
#include "dfs/resource_manager.hpp"
#include "dfs/rm_index.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sqos::dfs {

class ReplicationAgent {
 public:
  /// Rounds draw destinations from `root`'s "replication" stream, drains
  /// from its "rebalance" stream.
  ReplicationAgent(sim::Simulator& simulator, net::Network& network, MetadataDirectory& mm,
                   const FileDirectory& directory, const core::ReplicationConfig& config,
                   const Rng& root);

  ReplicationAgent(const ReplicationAgent&) = delete;
  ReplicationAgent& operator=(const ReplicationAgent&) = delete;

  /// Wire the cluster's shared RM index (needed to resolve destination
  /// NodeIds to components) and register this agent with every RM.
  void attach_rms(const RmIndex& rms);

  /// Called by an RM after it served a data request; evaluates the trigger
  /// and starts a replication round when it fires.
  void maybe_trigger(ResourceManager& source);

  /// Fires when a drain finishes: how many keys moved and how many could
  /// not (no destination, rejections, crashes).
  using DrainCallback = std::function<void(std::size_t migrated, std::size_t failed)>;

  /// Migrate every key stored on `source` to other RMs, one at a time on
  /// the replication lane, then fire `done`. A source crash mid-drain ends
  /// the drain (remaining keys count as failed).
  void drain(ResourceManager& source, DrainCallback done = {});

  /// One steady-state balancing step: move one key off the fullest online
  /// RM (by used bytes; ties break on the lower index) when some other RM
  /// sits below it. Returns true when a migration was started.
  bool rebalance_once();

  struct Counters {
    std::uint64_t rounds_started = 0;
    std::uint64_t rounds_empty = 0;       // trigger fired but nothing to copy
    std::uint64_t rounds_timed_out = 0;   // control messages lost; role released
    std::uint64_t copies_started = 0;
    std::uint64_t copies_completed = 0;
    std::uint64_t copies_failed = 0;      // destination could not store
    std::uint64_t destination_rejects = 0;
    std::uint64_t self_deletes = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t drains_started = 0;
    std::uint64_t drains_completed = 0;
    std::uint64_t migrations_started = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t migrations_failed = 0;  // no destination / reject / crash / deadline
    std::uint64_t bytes_moved = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const core::ReplicationConfig& config() const { return cfg_; }

  /// Drain migrations currently in flight (the no-residual-state audit
  /// expects zero at quiescence).
  [[nodiscard]] std::size_t migrations_in_flight() const { return in_flight_keys_.size(); }

  /// Optional observability sink; null (the default) disables all tracing.
  /// `track` is the replication pipeline's trace track id (Chrome tid).
  void set_observer(obs::Recorder* recorder, std::uint32_t track) {
    obs_ = recorder;
    obs_track_ = track;
  }

 private:
  /// Per-round state shared by the async continuations.
  struct Round {
    ResourceManager* source = nullptr;
    std::uint64_t source_epoch = 0;    // detects a source crash mid-round
    SimTime started;                   // round-latency span bound
    std::size_t pending_queries = 0;   // MM replica-list queries in flight
    std::size_t pending_requests = 0;  // destination requests awaiting response
    std::size_t outstanding_copies = 0;
    bool any_copy_started = false;
    bool closed = false;
  };

  /// Per-file bookkeeping inside one round: the over-bound self-delete
  /// happens only after the last copy of that file lands, and only when at
  /// least one copy succeeded (the replica count never dips below N_CUR).
  struct FilePlan {
    FileId file = 0;
    std::size_t copies_outstanding = 0;
    bool delete_self = false;
    bool any_success = false;
  };

  /// One drain in progress: the key list is snapshotted up front and walked
  /// sequentially, so concurrent stores on the source are untouched.
  struct Drain {
    ResourceManager* source = nullptr;
    std::uint64_t source_epoch = 0;
    SimTime started;
    std::vector<FileId> keys;
    std::size_t next = 0;
    std::size_t migrated = 0;
    std::size_t failed = 0;
    DrainCallback done;
  };

  /// One drain key in flight: its outcome and its deadline race to settle it.
  struct Migration {
    std::shared_ptr<Drain> drain;
    FileId key = 0;
    Bytes size;
    bool settled = false;
  };

  enum class CopyOutcome : std::uint8_t { kAborted, kStoreFailed, kStored };

  // §V rounds.
  void start_round(ResourceManager& source);
  void arm_round_deadline(const std::shared_ptr<Round>& round);
  void plan_file(const std::shared_ptr<Round>& round, FileId file,
                 const ReplicaListReplyMsg& reply);
  void start_copy(const std::shared_ptr<Round>& round, const std::shared_ptr<FilePlan>& file_plan,
                  ResourceManager& dest);
  void finish_round_part(const std::shared_ptr<Round>& round);

  // Drains.
  void migrate_next(const std::shared_ptr<Drain>& drain);
  void migrate_key(const std::shared_ptr<Drain>& drain, FileId key);
  void move_key(const std::shared_ptr<Migration>& move, ResourceManager& dest);
  [[nodiscard]] bool source_holds(const Migration& move) const;
  void settle(const std::shared_ptr<Migration>& move, bool moved);
  void finish_drain(const std::shared_ptr<Drain>& drain);

  // The session legs, shared by both planners.
  template <typename OnReply>
  void ask_non_holders(ResourceManager& source, FileId key, OnReply on_reply);
  template <typename OnResponse>
  void request_copy(ResourceManager& source, ResourceManager& dest, FileId key, Bytes size,
                    Bandwidth file_bandwidth, OnResponse on_response);
  template <typename OnLanded>
  void transfer(ResourceManager& source, ResourceManager& dest, FileId key, Bytes size,
                OnLanded on_landed);
  template <typename OnCommitted>
  void commit(ResourceManager& dest, FileId key, OnCommitted on_committed);
  [[nodiscard]] bool deregister(ResourceManager& rm, FileId key);

  [[nodiscard]] ResourceManager* rm_by_node(net::NodeId id) const;

  sim::Simulator& sim_;
  net::Network& net_;
  MetadataDirectory& mm_;
  const FileDirectory& directory_;
  core::ReplicationConfig cfg_;
  Rng rng_;        // round destinations
  Rng drain_rng_;  // drain destinations
  // Destination-selection scratch, reused across rounds (no per-file
  // allocation once warm).
  core::DestinationScratch dest_scratch_;
  std::vector<std::uint32_t> chosen_slots_;
  const RmIndex* rm_index_ = nullptr;  // cluster-owned shared lookup
  std::uint64_t next_transfer_id_ = 1;
  std::unordered_set<FileId> in_flight_keys_;  // one migration per key at a time
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace sqos::dfs
