// Distributed metadata service — consistent-hash sharding of the MM.
//
// The paper runs a single MM but notes (§VI.A) that "a distributed MM can be
// achieved by a Distributed Hash Table (DHT) as shown in [28]" (ASDF). This
// directory implements that: N MetadataManager shards behind a consistent-
// hash ring with virtual nodes. Every RM registers with every shard (each
// shard needs the global resource list to answer replica-list queries), and
// all per-file state — replica holders, replication updates, GC arbitration
// — lives on the file's owning shard. With shards == 1 the behaviour is the
// paper's single-MM system, byte for byte.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dfs/metadata_manager.hpp"
#include "net/network.hpp"

namespace sqos::dfs {

class MetadataDirectory {
 public:
  /// Creates `shards` MM instances (registering their nodes on the fabric)
  /// and a ring with `virtual_nodes` points per shard.
  MetadataDirectory(net::Network& network, std::size_t shards, std::size_t virtual_nodes = 64);

  MetadataDirectory(const MetadataDirectory&) = delete;
  MetadataDirectory& operator=(const MetadataDirectory&) = delete;

  // --- routing ---------------------------------------------------------------

  /// The shard owning `file` on the consistent-hash ring.
  [[nodiscard]] MetadataManager& shard_for(FileId file);
  [[nodiscard]] net::NodeId node_for(FileId file) const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] MetadataManager& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const MetadataManager& shard(std::size_t i) const { return *shards_[i]; }

  /// Backwards-compatible single-MM view (the first shard); most callers
  /// should route per file instead.
  [[nodiscard]] net::NodeId node_id() const { return shards_.front()->node_id(); }

  // --- aggregate inspection (union over shards) --------------------------------

  [[nodiscard]] std::vector<net::NodeId> holders_of(FileId file) const;
  [[nodiscard]] std::size_t replica_count(FileId file) const;
  [[nodiscard]] std::size_t total_replicas() const;
  [[nodiscard]] bool is_registered(net::NodeId rm) const;
  [[nodiscard]] std::size_t registered_rm_count() const;
  [[nodiscard]] std::vector<FileId> known_files() const;

  /// Bootstrap a static replica on the owning shard.
  void bootstrap_replica(net::NodeId rm, FileId file);

  /// Bootstrap a stripe shard (packed shard key) on the base file's shard.
  void bootstrap_shard(net::NodeId rm, FileId key);

  /// The stripe entry of base file `file`, or null (queries its owner).
  [[nodiscard]] const MetadataManager::StripeInfo* stripe_of(FileId file) const;

  /// Visit every registered stripe, ascending base id across shards.
  void for_each_stripe(
      const std::function<void(FileId, const MetadataManager::StripeInfo&)>& fn) const;

  /// Ring diagnostics: how many of `n` sequential file ids land per shard.
  [[nodiscard]] std::vector<std::size_t> ownership_histogram(FileId first, std::size_t n) const;

 private:
  [[nodiscard]] std::size_t shard_index_for(FileId file) const;

  struct RingPoint {
    std::uint64_t hash;
    std::size_t shard;
    friend bool operator<(const RingPoint& a, const RingPoint& b) { return a.hash < b.hash; }
  };

  std::vector<std::unique_ptr<MetadataManager>> shards_;
  std::vector<RingPoint> ring_;
};

}  // namespace sqos::dfs
