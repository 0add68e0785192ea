// Dynamic-replication orchestration (§V).
//
// The agent runs the source-side replication round: when an RM's trigger
// fires it (1) ranks the RM's busiest files (the N_BF cover), (2) queries the
// MM for RMs without a replica of each file, (3) clamps the per-round copy
// count against N_MAXR, (4) selects destinations with the configured
// strategy, and (5) executes the accepted copies as 1.8 Mbit/s flows on both
// endpoints, updating the MM when each copy lands and performing the
// over-bound source self-delete.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
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
  ReplicationAgent(sim::Simulator& simulator, net::Network& network, MetadataDirectory& mm,
                   const FileDirectory& directory, const core::ReplicationConfig& config,
                   Rng rng);

  ReplicationAgent(const ReplicationAgent&) = delete;
  ReplicationAgent& operator=(const ReplicationAgent&) = delete;

  /// Wire the cluster's shared RM index (needed to resolve destination
  /// NodeIds to components) and register this agent with every RM.
  void attach_rms(const RmIndex& rms);

  /// Called by an RM after it served a data request; evaluates the trigger
  /// and starts a replication round when it fires.
  void maybe_trigger(ResourceManager& source);

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
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const core::ReplicationConfig& config() const { return cfg_; }

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

  void start_round(ResourceManager& source);
  void arm_round_deadline(const std::shared_ptr<Round>& round);
  void plan_file(const std::shared_ptr<Round>& round, FileId file,
                 const ReplicaListReplyMsg& reply);
  void start_copy(const std::shared_ptr<Round>& round, const std::shared_ptr<FilePlan>& file_plan,
                  ResourceManager& dest);
  void finish_round_part(const std::shared_ptr<Round>& round);

  [[nodiscard]] ResourceManager* rm_by_node(net::NodeId id) const;

  sim::Simulator& sim_;
  net::Network& net_;
  MetadataDirectory& mm_;
  const FileDirectory& directory_;
  core::ReplicationConfig cfg_;
  Rng rng_;
  // Destination-selection scratch, reused across rounds (no per-file
  // allocation once warm).
  core::DestinationScratch dest_scratch_;
  std::vector<std::uint32_t> chosen_slots_;
  const RmIndex* rm_index_ = nullptr;  // cluster-owned shared lookup
  std::uint64_t next_transfer_id_ = 1;
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace sqos::dfs
