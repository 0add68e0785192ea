#include "dfs/gc_agent.hpp"

#include "util/logging.hpp"

namespace sqos::dfs {

void GarbageCollector::start(SimTime until) {
  if (!cfg_.enabled) return;
  const sim::Periodic scans{sim_.now() + cfg_.scan_interval, cfg_.scan_interval};
  sim_.schedule_series(scans.count_through(until), scans, [this](std::size_t) { scan_once(); });
}

void GarbageCollector::scan_once() {
  ++counters_.scans;
  for (ResourceManager* rm : rms_) {
    if (rm->is_online()) scan_rm(*rm);
  }
}

void GarbageCollector::scan_rm(ResourceManager& rm) {
  ResourceManager* rm_ptr = &rm;
  // One surplus-list round trip per MM shard per RM per scan
  // (kReplicaListQuery kind — the same class of metadata list query
  // replication sources use). Each shard reports the files it owns.
  for (std::size_t s = 0; s < mm_.shard_count(); ++s) {
    MetadataManager& shard = mm_.shard(s);
    net_.send(rm.node_id(), shard.node_id(), net::MessageKind::kReplicaListQuery,
              ReplicaListQueryMsg::estimated_size(), [this, rm_ptr, &shard] {
                const std::vector<FileId> surplus =
                    shard.surplus_files_of(rm_ptr->node_id(), cfg_.min_replicas);
                net_.send(shard.node_id(), rm_ptr->node_id(),
                          net::MessageKind::kReplicaListReply, message_size(surplus.size()),
                          [this, rm_ptr, surplus] { offer_candidates(*rm_ptr, surplus); });
              });
  }
}

void GarbageCollector::offer_candidates(ResourceManager& rm, const std::vector<FileId>& surplus) {
  const SimTime now = sim_.now();
  for (const FileId file : surplus) {
    if (!rm.has_replica(file)) continue;  // deleted since the query went out
    const bool endpoint = rm.trigger().is_source() || rm.trigger().is_destination();
    // The surplus list already established count > floor; pass floor + 1 so
    // the pure policy checks idleness/age/endpoint. The MM re-validates the
    // count authoritatively at approval time.
    if (!core::should_delete_replica(cfg_, now, cfg_.min_replicas + 1, rm.last_access_of(file),
                                     rm.stored_at_of(file), endpoint)) {
      continue;
    }
    if (rm.has_active_flow_for(file)) continue;

    ++counters_.candidates;
    DeleteRequestMsg request;
    request.rm = rm.node_id();
    request.file = file;
    request.min_replicas = cfg_.min_replicas;
    ResourceManager* rm_ptr = &rm;
    MetadataManager& owner = mm_.shard_for(file);
    net_.send(rm.node_id(), owner.node_id(), net::MessageKind::kDeleteRequest,
              DeleteRequestMsg::estimated_size(), [this, rm_ptr, &owner, request] {
                const DeleteReplyMsg reply = owner.handle_delete_request(request);
                net_.send(owner.node_id(), rm_ptr->node_id(), net::MessageKind::kDeleteReply,
                          DeleteReplyMsg::estimated_size(), [this, rm_ptr, reply] {
                            if (!reply.approved) {
                              ++counters_.deletes_denied;
                              return;
                            }
                            if (!rm_ptr->is_online()) {
                              // Crashed between request and approval: the MM
                              // already dropped the replica entry; the disk
                              // copy is re-registered at recovery, restoring
                              // consistency.
                              return;
                            }
                            const Bytes size = rm_ptr->disk().size_of(reply.file);
                            if (rm_ptr->delete_replica(reply.file).is_ok()) {
                              ++counters_.deletes_approved;
                              counters_.bytes_reclaimed +=
                                  static_cast<std::uint64_t>(size.count());
                            } else {
                              // The replica vanished between approval and
                              // delivery (e.g. an over-bound self-delete);
                              // the MM map is already consistent.
                              Log::debug("gc: approved replica of file %llu already gone",
                                         static_cast<unsigned long long>(reply.file));
                            }
                          });
              });
  }
}

}  // namespace sqos::dfs
