// Metadata Manager — the ECNP Mapper/Matchmaker (§III.A).
//
// Maintains the global resource list (union of everything the RMs register)
// and the file -> replica-holder map, and answers two query families:
// resource queries from DFSCs (which RMs can serve file F) and replica-list
// queries from replication sources (which RMs do NOT yet hold F).
//
// Messaging idiom: handlers are synchronous state transitions invoked from
// delivery closures; the *caller* composes the round trip on the network so
// both legs get latency and traffic accounting (see Cluster wiring).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dfs/ecnp_messages.hpp"
#include "dfs/file_types.hpp"
#include "dfs/rm_catalog.hpp"
#include "net/node_id.hpp"
#include "storage/stripe_layout.hpp"
#include "util/units.hpp"

namespace sqos::obs {
struct Recorder;
}

namespace sqos::dfs {

class MetadataManager {
 public:
  explicit MetadataManager(net::NodeId id) : id_{id} {}

  [[nodiscard]] net::NodeId node_id() const { return id_; }

  /// A file's replica holders as a sorted vector: replica counts are bounded
  /// by N_MAXR (single digits), where a compact sorted vector beats a hash
  /// set on every operation, iterates deterministically, and hands
  /// holders_of its output pre-sorted. Shard holder sets reuse it.
  class HolderSet {
   public:
    [[nodiscard]] bool contains(net::NodeId rm) const {
      return std::binary_search(ids_.begin(), ids_.end(), rm);
    }
    void insert(net::NodeId rm) {
      const auto it = std::lower_bound(ids_.begin(), ids_.end(), rm);
      if (it == ids_.end() || *it != rm) ids_.insert(it, rm);
    }
    /// Mirrors std::unordered_set::erase — the number of elements removed.
    std::size_t erase(net::NodeId rm) {
      const auto it = std::lower_bound(ids_.begin(), ids_.end(), rm);
      if (it == ids_.end() || *it != rm) return 0;
      ids_.erase(it);
      return 1;
    }
    [[nodiscard]] std::size_t size() const { return ids_.size(); }
    [[nodiscard]] bool empty() const { return ids_.empty(); }
    [[nodiscard]] auto begin() const { return ids_.begin(); }
    [[nodiscard]] auto end() const { return ids_.end(); }

   private:
    std::vector<net::NodeId> ids_;  // ascending
  };

  /// One EC stripe's metadata: shape plus the holder set of every shard
  /// (index 0..k-1 data, k..k+m-1 parity). `degraded` is derived — true as
  /// soon as any shard has no registered holder — and is what the
  /// stripe-conservation invariant audits against the shard table.
  struct StripeInfo {
    std::uint8_t k = 0;
    std::uint8_t m = 0;
    bool degraded = false;
    std::vector<HolderSet> shards;

    /// Shards that still have at least one registered holder.
    [[nodiscard]] std::size_t live_shards() const {
      std::size_t live = 0;
      for (const HolderSet& h : shards) {
        if (!h.empty()) ++live;
      }
      return live;
    }
  };

  // --- protocol handlers ---------------------------------------------------

  /// RM registration. Maintains global-resource-list integrity: re-registering
  /// the same RM replaces its previous entry and replica set.
  void handle_register(const RegisterMsg& msg);

  /// Periodic resource refresh (anti-entropy): identical to re-registration
  /// but expected — it reconciles the MM's view with the RM's disk truth
  /// after lost commit/delete messages, without the re-registration warning.
  void handle_resource_update(const RegisterMsg& msg);

  /// DFSC resource query: the replica holders of `file`.
  [[nodiscard]] ResourceReplyMsg handle_resource_query(FileId file);

  /// Replication-source query: registered RMs holding no replica of `file`,
  /// plus the current replica count N_CUR.
  [[nodiscard]] ReplicaListReplyMsg handle_replica_list_query(FileId file);

  void handle_replication_done(const ReplicationDoneMsg& msg);
  void handle_replica_delete(const ReplicaDeleteMsg& msg);

  /// DFSC layout query (EC read path): the stripe shape and per-shard
  /// holders of `file`, or (k == 0) the whole-file holders, so
  /// replication-layout files need no second round trip.
  [[nodiscard]] LayoutReplyMsg handle_stripe_query(FileId file);

  /// GC arbitration (§III.B deletion): approve dropping the requester's
  /// replica only while the file would keep more than `min_replicas` copies
  /// and the requester actually holds one. Approval removes the replica from
  /// the global map atomically, so concurrent requests cannot both win the
  /// same slot.
  [[nodiscard]] DeleteReplyMsg handle_delete_request(const DeleteRequestMsg& msg);

  /// GC pre-filter: the files for which `rm` holds a replica while the
  /// system-wide count exceeds `floor` (sorted for determinism). One query
  /// per RM per scan keeps GC traffic bounded.
  [[nodiscard]] std::vector<FileId> surplus_files_of(net::NodeId rm, std::uint32_t floor) const;

  // --- bootstrap & inspection ----------------------------------------------

  /// Record a replica placed out-of-band during initial (static) placement.
  void bootstrap_replica(net::NodeId rm, FileId file);

  /// Record a shard placed out-of-band during initial stripe placement.
  /// `key` is a packed shard key; the stripe entry grows on demand.
  void bootstrap_shard(net::NodeId rm, FileId key);

  /// Registered stripes by base file id, ascending (std::map order).
  [[nodiscard]] const std::map<FileId, StripeInfo>& stripes() const { return stripes_; }

  /// The stripe entry of base file `file`, or null when it is not striped.
  [[nodiscard]] const StripeInfo* stripe_of(FileId file) const {
    const auto it = stripes_.find(file);
    return it == stripes_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::vector<net::NodeId> holders_of(FileId file) const;
  [[nodiscard]] std::size_t replica_count(FileId file) const;
  [[nodiscard]] std::size_t registered_rm_count() const { return rms_.size(); }
  [[nodiscard]] bool is_registered(net::NodeId rm) const { return rm_index_.contains(rm); }
  [[nodiscard]] std::vector<net::NodeId> registered_rms() const;
  [[nodiscard]] Bandwidth rm_bandwidth(net::NodeId rm) const;

  /// Total replicas across all files (capacity-pressure diagnostics).
  [[nodiscard]] std::size_t total_replicas() const;

  /// Every file with at least one registered replica, sorted — the
  /// resource-list content behind the client's readdir (§III.A.1).
  [[nodiscard]] std::vector<FileId> known_files() const;

  struct Counters {
    std::uint64_t registrations = 0;
    std::uint64_t resource_queries = 0;
    std::uint64_t replica_list_queries = 0;
    std::uint64_t replication_done = 0;
    std::uint64_t replica_deletes = 0;
    std::uint64_t delete_requests = 0;
    std::uint64_t deletes_approved = 0;
    std::uint64_t stripe_queries = 0;
    std::uint64_t stripes_degraded = 0;  // healthy -> degraded transitions
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Optional observability sink; null (the default) disables all tracing.
  /// `track` is this MM shard's trace track id (Chrome tid).
  void set_observer(obs::Recorder* recorder, std::uint32_t track) {
    obs_ = recorder;
    obs_track_ = track;
  }

 private:
  struct RmInfo {
    net::NodeId id;
    Bandwidth dispatched_bandwidth;
    Bytes disk_capacity;
  };

  /// The current catalog snapshot, rebuilt lazily after registrations
  /// (copy-on-write: replies in flight keep the snapshot they captured).
  [[nodiscard]] const std::shared_ptr<const RmCatalogSnapshot>& catalog();

  net::NodeId id_;
  std::vector<RmInfo> rms_;
  std::unordered_map<net::NodeId, std::size_t> rm_index_;
  /// Holder sets indexed directly by FileId — catalog ids are dense, so a
  /// flat table answers the per-negotiation holder queries with one bounds
  /// check instead of a hash probe into a 10^5-entry map. An empty set is
  /// indistinguishable from "never registered" (by design: every reader
  /// treats them identically). grow_slot() widens the table on demand.
  std::vector<HolderSet> replicas_;

  [[nodiscard]] HolderSet& grow_slot(FileId file) {
    if (replicas_.size() <= file) replicas_.resize(file + 1);
    return replicas_[file];
  }
  [[nodiscard]] const HolderSet* slot(FileId file) const {
    return file < replicas_.size() ? &replicas_[file] : nullptr;
  }

  /// EC stripes keyed by *base* file id. Shard keys carry bit 63 and would
  /// explode the flat replica table, so they live in their own ordered map
  /// (stripe counts are small; std::map iterates deterministically). The
  /// entry's shape (k, m, shard count) is rebuilt from any shard key alone,
  /// which is what lets plain register messages reconstruct the table after
  /// an MM restart.
  std::map<FileId, StripeInfo> stripes_;

  /// The stripe entry + shard holder set addressed by packed shard key
  /// `key`, growing the entry from the key's embedded (k, m) on demand.
  [[nodiscard]] HolderSet& shard_slot(FileId key);

  /// Re-derive `degraded` after a holder-set change and count the
  /// healthy -> degraded transitions.
  void refresh_degraded(StripeInfo& stripe);
  std::shared_ptr<const RmCatalogSnapshot> catalog_;  // null = dirty
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace sqos::dfs
