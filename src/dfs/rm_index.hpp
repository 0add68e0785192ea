// Dense NodeId -> ResourceManager* index, built once by the cluster and
// shared read-only by every client and the replication agent.
//
// Fabric NodeIds are dense (assigned by registration order), so a flat
// pointer table answers rm_by_node with one bounds check and one load. The
// previous design gave every DfsClient its own unordered_map copy of the RM
// set; at 2048 RMs x 10^5 clients those copies were tens of megabytes of
// duplicated, permanently cache-cold buckets, and the per-delivery lookup
// dominated the profile at scale. One shared table stays resident in cache.
#pragma once

#include <vector>

#include "net/node_id.hpp"

namespace sqos::dfs {

class ResourceManager;

class RmIndex {
 public:
  /// Register one RM (construction order defines nodes() order, which is the
  /// CNP broadcast order — identical to the old per-client vector).
  void add(net::NodeId id, ResourceManager* rm) {
    if (slots_.size() <= id.value()) slots_.resize(id.value() + 1, nullptr);
    slots_[id.value()] = rm;
    nodes_.push_back(id);
  }

  /// The RM registered under `id`, or null for non-RM nodes.
  [[nodiscard]] ResourceManager* by_node(net::NodeId id) const {
    return id.value() < slots_.size() ? slots_[id.value()] : nullptr;
  }

  /// Every RM NodeId in registration order.
  [[nodiscard]] const std::vector<net::NodeId>& nodes() const { return nodes_; }

 private:
  std::vector<ResourceManager*> slots_;  // NodeId-indexed, null gaps
  std::vector<net::NodeId> nodes_;
};

}  // namespace sqos::dfs
