// Drain/rebalance orchestration for maintenance and capacity balancing.
//
// Where the ReplicationAgent copies *hot* files to add replicas, the
// RebalanceAgent *moves* keys — whole-file replicas and EC shards alike.
// drain() empties an RM ahead of maintenance by migrating every stored key
// to a freshly selected destination; rebalance_once() shifts one key off
// the fullest disk in steady state. A migration is an ordinary two-party
// replication session (request -> accept -> transfer -> MM commit) followed
// by the source-side delete, in that order: the key keeps its original copy
// until the new one is registered with the MM (add-before-remove), which is
// what the rebalance-conservation invariant audits.
//
// Destination selection reuses the MM's replica-list query. For shard keys
// the MM returns the union of every slot holding *any* shard of the stripe
// as the holder set, so the non-holder pool automatically excludes the
// stripe's other participants (anti-affinity is preserved across moves).
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

class RebalanceAgent {
 public:
  RebalanceAgent(sim::Simulator& simulator, net::Network& network, MetadataDirectory& mm,
                 const FileDirectory& directory, const core::ReplicationConfig& config, Rng rng);

  RebalanceAgent(const RebalanceAgent&) = delete;
  RebalanceAgent& operator=(const RebalanceAgent&) = delete;

  /// Wire the cluster's shared RM index (destination NodeId -> component).
  void attach_rms(const RmIndex& rms) { rm_index_ = &rms; }

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
    std::uint64_t drains_started = 0;
    std::uint64_t drains_completed = 0;
    std::uint64_t migrations_started = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t migrations_failed = 0;  // no destination / reject / crash
    std::uint64_t bytes_moved = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Migrations currently in flight (the no-residual-state audit expects
  /// zero at quiescence).
  [[nodiscard]] std::size_t in_flight() const { return in_flight_keys_.size(); }

  /// Optional observability sink; null (the default) disables all tracing.
  void set_observer(obs::Recorder* recorder, std::uint32_t track) {
    obs_ = recorder;
    obs_track_ = track;
  }

 private:
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

  /// Settles one key: success/failure plus the payload bytes moved.
  using SettleFn = std::function<void(bool, Bytes)>;

  void migrate_next(const std::shared_ptr<Drain>& drain);
  void migrate_key(const std::shared_ptr<Drain>& drain, FileId key);
  void start_transfer(const std::shared_ptr<Drain>& drain, FileId key, const SettleFn& settle,
                      ResourceManager& dest);
  void finish_drain(const std::shared_ptr<Drain>& drain);

  [[nodiscard]] ResourceManager* rm_by_node(net::NodeId id) const;

  sim::Simulator& sim_;
  net::Network& net_;
  MetadataDirectory& mm_;
  const FileDirectory& directory_;
  core::ReplicationConfig cfg_;
  Rng rng_;
  core::DestinationScratch dest_scratch_;
  std::vector<std::uint32_t> chosen_slots_;
  const RmIndex* rm_index_ = nullptr;
  std::uint64_t next_transfer_id_ = 1;
  std::unordered_set<FileId> in_flight_keys_;  // one migration per key at a time
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace sqos::dfs
