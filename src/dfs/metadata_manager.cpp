#include "dfs/metadata_manager.hpp"

#include <algorithm>
#include <cassert>

#include "obs/recorder.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

void MetadataManager::handle_register(const RegisterMsg& msg) {
  const auto it = rm_index_.find(msg.rm);
  if (it != rm_index_.end()) {
    Log::warn("MM: RM %s re-registered; resetting its resource entry",
              msg.rm.to_string().c_str());
  }
  handle_resource_update(msg);
}

void MetadataManager::handle_resource_update(const RegisterMsg& msg) {
  ++counters_.registrations;
  if (obs_ != nullptr) {
    obs_->trace.instant(
        obs_track_, "register", "mm",
        {obs::arg("rm", static_cast<std::uint64_t>(msg.rm.value())),
         obs::arg("files", static_cast<std::uint64_t>(msg.stored_files.size()))});
  }
  const auto it = rm_index_.find(msg.rm);
  if (it != rm_index_.end()) {
    // Known RM: reset its replica entries to the reported disk truth. This
    // is the anti-entropy step that heals commit/delete messages lost to
    // partitions or crashes. Stripe shard sets reconcile the same way.
    for (HolderSet& holders : replicas_) holders.erase(msg.rm);
    for (auto& [base, stripe] : stripes_) {
      for (HolderSet& holders : stripe.shards) holders.erase(msg.rm);
    }
    rms_[it->second] = RmInfo{msg.rm, msg.dispatched_bandwidth, msg.disk_capacity};
  } else {
    rm_index_.emplace(msg.rm, rms_.size());
    rms_.push_back(RmInfo{msg.rm, msg.dispatched_bandwidth, msg.disk_capacity});
  }
  for (const FileId f : msg.stored_files) {
    if (storage::shard_key::is_shard(f)) {
      shard_slot(f).insert(msg.rm);
    } else {
      grow_slot(f).insert(msg.rm);
    }
  }
  for (auto& [base, stripe] : stripes_) refresh_degraded(stripe);
  // The published catalog no longer matches rms_; the next replica-list
  // query rebuilds it (copy-on-write — replies in flight keep theirs).
  catalog_.reset();
}

const std::shared_ptr<const RmCatalogSnapshot>& MetadataManager::catalog() {
  if (catalog_ == nullptr) {
    auto fresh = std::make_shared<RmCatalogSnapshot>();
    fresh->rm.reserve(rms_.size());
    fresh->bandwidth.reserve(rms_.size());
    for (const RmInfo& rm : rms_) {
      fresh->rm.push_back(rm.id);
      fresh->bandwidth.push_back(rm.dispatched_bandwidth);
    }
    fresh->bandwidth_tree.reset(rms_.size());
    for (std::uint32_t slot = 0; slot < rms_.size(); ++slot) {
      fresh->bandwidth_tree.set_key(slot, rms_[slot].dispatched_bandwidth.bps());
    }
    catalog_ = std::move(fresh);
  }
  return catalog_;
}

ResourceReplyMsg MetadataManager::handle_resource_query(FileId file) {
  ++counters_.resource_queries;
  ResourceReplyMsg reply;
  reply.file = file;
  reply.holders = holders_of(file);
  return reply;
}

ReplicaListReplyMsg MetadataManager::handle_replica_list_query(FileId file) {
  ++counters_.replica_list_queries;
  ReplicaListReplyMsg reply;
  reply.file = file;
  reply.catalog = catalog();
  if (storage::shard_key::is_shard(file)) {
    // Shard migration query: the "holders" to exclude as destinations are
    // the RMs holding *any* shard of the stripe — that is the anti-affinity
    // rule (one RM must never hold two shards of one stripe), and
    // current_replicas counts this specific shard's copies.
    const auto it = stripes_.find(storage::shard_key::base(file));
    if (it != stripes_.end()) {
      const StripeInfo& stripe = it->second;
      const std::size_t index = storage::shard_key::index(file);
      if (index < stripe.shards.size()) {
        reply.current_replicas = static_cast<std::uint32_t>(stripe.shards[index].size());
      }
      for (const HolderSet& holders : stripe.shards) {
        for (const net::NodeId rm : holders) {
          const auto slot = rm_index_.find(rm);
          if (slot == rm_index_.end()) continue;
          reply.holder_slots.push_back(static_cast<std::uint32_t>(slot->second));
        }
      }
      std::sort(reply.holder_slots.begin(), reply.holder_slots.end());
      reply.holder_slots.erase(
          std::unique(reply.holder_slots.begin(), reply.holder_slots.end()),
          reply.holder_slots.end());
    }
    return reply;
  }
  if (const HolderSet* holders = slot(file); holders != nullptr) {
    reply.current_replicas = static_cast<std::uint32_t>(holders->size());
    reply.holder_slots.reserve(holders->size());
    for (const net::NodeId rm : *holders) {
      const auto slot = rm_index_.find(rm);
      if (slot == rm_index_.end()) continue;  // holder not (currently) registered
      reply.holder_slots.push_back(static_cast<std::uint32_t>(slot->second));
    }
    // Holder ids ascend, but slots are registration-ordered — re-sort.
    std::sort(reply.holder_slots.begin(), reply.holder_slots.end());
  }
  return reply;
}

LayoutReplyMsg MetadataManager::handle_stripe_query(FileId file) {
  ++counters_.stripe_queries;
  LayoutReplyMsg reply;
  reply.file = file;
  const auto it = stripes_.find(file);
  if (it == stripes_.end()) {
    // Not striped: fall back to whole-file holders (k stays 0).
    reply.holders = holders_of(file);
    return reply;
  }
  const StripeInfo& stripe = it->second;
  reply.k = stripe.k;
  reply.m = stripe.m;
  reply.degraded = stripe.degraded;
  reply.offsets.reserve(stripe.shards.size() + 1);
  reply.offsets.push_back(0);
  for (const HolderSet& holders : stripe.shards) {
    for (const net::NodeId rm : holders) reply.holders.push_back(rm);
    reply.offsets.push_back(static_cast<std::uint32_t>(reply.holders.size()));
  }
  return reply;
}

void MetadataManager::handle_replication_done(const ReplicationDoneMsg& msg) {
  ++counters_.replication_done;
  assert(is_registered(msg.rm));
  if (storage::shard_key::is_shard(msg.file)) {
    shard_slot(msg.file).insert(msg.rm);
    refresh_degraded(stripes_[storage::shard_key::base(msg.file)]);
  } else {
    grow_slot(msg.file).insert(msg.rm);
  }
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "replica_committed", "mm",
                        {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                         obs::arg("rm", static_cast<std::uint64_t>(msg.rm.value()))});
  }
}

void MetadataManager::handle_replica_delete(const ReplicaDeleteMsg& msg) {
  ++counters_.replica_deletes;
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "replica_deleted", "mm",
                        {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                         obs::arg("rm", static_cast<std::uint64_t>(msg.rm.value()))});
  }
  if (storage::shard_key::is_shard(msg.file)) {
    const auto it = stripes_.find(storage::shard_key::base(msg.file));
    const std::size_t index = storage::shard_key::index(msg.file);
    if (it == stripes_.end() || index >= it->second.shards.size() ||
        it->second.shards[index].erase(msg.rm) == 0) {
      Log::warn("MM: delete of unknown shard (key %llu on %s)",
                static_cast<unsigned long long>(msg.file), msg.rm.to_string().c_str());
    } else {
      refresh_degraded(it->second);
    }
    return;
  }
  HolderSet* holders = msg.file < replicas_.size() ? &replicas_[msg.file] : nullptr;
  if (holders == nullptr || holders->erase(msg.rm) == 0) {
    Log::warn("MM: delete of unknown replica (file %llu on %s)",
              static_cast<unsigned long long>(msg.file), msg.rm.to_string().c_str());
  }
}

DeleteReplyMsg MetadataManager::handle_delete_request(const DeleteRequestMsg& msg) {
  ++counters_.delete_requests;
  DeleteReplyMsg reply;
  reply.file = msg.file;
  if (storage::shard_key::is_shard(msg.file)) {
    // Stripe shards are never surplus: each normally has exactly one copy
    // (two only mid-migration), so the > min_replicas rule refuses GC.
    return reply;
  }
  HolderSet* holders = msg.file < replicas_.size() ? &replicas_[msg.file] : nullptr;
  if (holders != nullptr && holders->size() > msg.min_replicas && holders->contains(msg.rm)) {
    holders->erase(msg.rm);
    reply.approved = true;
    ++counters_.deletes_approved;
    if (obs_ != nullptr) {
      obs_->trace.instant(obs_track_, "gc_delete_approved", "mm",
                          {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                           obs::arg("rm", static_cast<std::uint64_t>(msg.rm.value()))});
    }
  }
  return reply;
}

std::vector<FileId> MetadataManager::surplus_files_of(net::NodeId rm, std::uint32_t floor) const {
  std::vector<FileId> out;
  // Table index order IS ascending FileId order — no re-sort needed.
  for (FileId file = 0; file < replicas_.size(); ++file) {
    const HolderSet& holders = replicas_[file];
    if (holders.size() > floor && holders.contains(rm)) out.push_back(file);
  }
  return out;
}

void MetadataManager::bootstrap_replica(net::NodeId rm, FileId file) {
  grow_slot(file).insert(rm);
}

void MetadataManager::bootstrap_shard(net::NodeId rm, FileId key) {
  assert(storage::shard_key::is_shard(key));
  shard_slot(key).insert(rm);
  refresh_degraded(stripes_[storage::shard_key::base(key)]);
}

MetadataManager::HolderSet& MetadataManager::shard_slot(FileId key) {
  StripeInfo& stripe = stripes_[storage::shard_key::base(key)];
  if (stripe.shards.empty()) {
    stripe.k = storage::shard_key::k_of(key);
    stripe.m = storage::shard_key::m_of(key);
    stripe.shards.resize(static_cast<std::size_t>(stripe.k) + stripe.m);
    // Born degraded: holder sets fill in one shard at a time during
    // bootstrap/registration, and a never-yet-healthy stripe must not count
    // as a healthy -> degraded transition.
    stripe.degraded = true;
  }
  const std::size_t index = storage::shard_key::index(key);
  assert(index < stripe.shards.size());
  return stripe.shards[index];
}

void MetadataManager::refresh_degraded(StripeInfo& stripe) {
  const bool now = stripe.live_shards() < stripe.shards.size();
  if (now && !stripe.degraded) ++counters_.stripes_degraded;
  stripe.degraded = now;
}

std::vector<net::NodeId> MetadataManager::holders_of(FileId file) const {
  if (storage::shard_key::is_shard(file)) {
    const auto it = stripes_.find(storage::shard_key::base(file));
    if (it == stripes_.end()) return {};
    const std::size_t index = storage::shard_key::index(file);
    if (index >= it->second.shards.size()) return {};
    const HolderSet& holders = it->second.shards[index];
    return std::vector<net::NodeId>{holders.begin(), holders.end()};
  }
  const HolderSet* holders = slot(file);
  if (holders == nullptr) return {};
  // HolderSet keeps ids sorted, which is exactly the deterministic order the
  // CFP fan-out needs — a straight copy replaces the old copy-and-sort.
  return std::vector<net::NodeId>{holders->begin(), holders->end()};
}

std::size_t MetadataManager::replica_count(FileId file) const {
  if (storage::shard_key::is_shard(file)) return holders_of(file).size();
  const HolderSet* holders = slot(file);
  return holders == nullptr ? 0 : holders->size();
}

std::vector<net::NodeId> MetadataManager::registered_rms() const {
  std::vector<net::NodeId> out;
  out.reserve(rms_.size());
  for (const auto& rm : rms_) out.push_back(rm.id);
  return out;
}

Bandwidth MetadataManager::rm_bandwidth(net::NodeId rm) const {
  const auto it = rm_index_.find(rm);
  assert(it != rm_index_.end());
  return rms_[it->second].dispatched_bandwidth;
}

std::vector<FileId> MetadataManager::known_files() const {
  std::vector<FileId> out;
  out.reserve(replicas_.size());
  // Table index order IS ascending FileId order — no re-sort needed.
  for (FileId file = 0; file < replicas_.size(); ++file) {
    if (!replicas_[file].empty()) out.push_back(file);
  }
  return out;
}

std::size_t MetadataManager::total_replicas() const {
  std::size_t total = 0;
  for (const HolderSet& holders : replicas_) total += holders.size();
  return total;
}

}  // namespace sqos::dfs
