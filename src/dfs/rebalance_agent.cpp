#include "dfs/rebalance_agent.hpp"

#include "obs/recorder.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

RebalanceAgent::RebalanceAgent(sim::Simulator& simulator, net::Network& network,
                               MetadataDirectory& mm, const FileDirectory& directory,
                               const core::ReplicationConfig& config, Rng rng)
    : sim_{simulator},
      net_{network},
      mm_{mm},
      directory_{directory},
      cfg_{config},
      rng_{std::move(rng)} {}

ResourceManager* RebalanceAgent::rm_by_node(net::NodeId id) const {
  return rm_index_ == nullptr ? nullptr : rm_index_->by_node(id);
}

void RebalanceAgent::drain(ResourceManager& source, DrainCallback done) {
  ++counters_.drains_started;
  auto drain_state = std::make_shared<Drain>();
  drain_state->source = &source;
  drain_state->source_epoch = source.epoch();
  drain_state->started = sim_.now();
  drain_state->keys = source.disk().file_keys();
  drain_state->done = std::move(done);
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "drain_start", "rebalance",
                        {obs::arg("source", static_cast<std::uint64_t>(source.node_id().value())),
                         obs::arg("keys", static_cast<std::uint64_t>(drain_state->keys.size()))});
  }
  migrate_next(drain_state);
}

bool RebalanceAgent::rebalance_once() {
  if (rm_index_ == nullptr) return false;
  // Fullest and emptiest online RMs by used bytes, index order breaking ties
  // — a deterministic scan over the registration-ordered node table.
  ResourceManager* fullest = nullptr;
  ResourceManager* emptiest = nullptr;
  for (const net::NodeId node : rm_index_->nodes()) {
    ResourceManager* rm = rm_by_node(node);
    if (rm == nullptr || !rm->is_online()) continue;
    if (fullest == nullptr || rm->disk().used() > fullest->disk().used()) fullest = rm;
    if (emptiest == nullptr || rm->disk().used() < emptiest->disk().used()) emptiest = rm;
  }
  if (fullest == nullptr || fullest == emptiest) return false;
  if (fullest->disk().file_count() == 0) return false;
  if (fullest->disk().used() <= emptiest->disk().used()) return false;

  auto drain_state = std::make_shared<Drain>();
  drain_state->source = fullest;
  drain_state->source_epoch = fullest->epoch();
  drain_state->started = sim_.now();
  drain_state->keys.push_back(fullest->disk().file_keys().front());
  migrate_next(drain_state);
  return true;
}

void RebalanceAgent::migrate_next(const std::shared_ptr<Drain>& drain) {
  ResourceManager& source = *drain->source;
  while (drain->next < drain->keys.size()) {
    if (!source.is_online() || source.epoch() != drain->source_epoch) {
      // Source crashed mid-drain: everything not yet moved failed.
      drain->failed += drain->keys.size() - drain->next;
      drain->next = drain->keys.size();
      break;
    }
    const FileId key = drain->keys[drain->next++];
    if (!source.has_replica(key)) continue;  // deleted since the snapshot
    // Another drain is already moving it: a second copy would outlive the
    // source's, leaving the key with a permanent extra replica.
    if (in_flight_keys_.contains(key)) continue;
    migrate_key(drain, key);
    return;  // sequential: the settle path calls migrate_next again
  }
  finish_drain(drain);
}

void RebalanceAgent::migrate_key(const std::shared_ptr<Drain>& drain, FileId key) {
  ResourceManager& source = *drain->source;
  ++counters_.migrations_started;
  in_flight_keys_.insert(key);

  // Whichever of the migration outcome and the deadline fires first settles
  // the key; lost control messages (partition) must not wedge the drain.
  auto settled = std::make_shared<bool>(false);
  const auto settle = [this, drain, settled, key](bool ok, Bytes moved) {
    if (*settled) return;
    *settled = true;
    in_flight_keys_.erase(key);
    if (ok) {
      ++drain->migrated;
      ++counters_.migrations_completed;
      counters_.bytes_moved += static_cast<std::uint64_t>(moved.count());
    } else {
      ++drain->failed;
      ++counters_.migrations_failed;
    }
    migrate_next(drain);
  };
  const Bytes size = source.disk().size_of(key);
  sim_.schedule_after(cfg_.transfer_speed.time_to_transfer(size) + cfg_.round_timeout,
                      [settle] { settle(false, Bytes{}); });

  // "Where to": the owning MM shard's non-holder list. For shard keys the
  // holder set is the whole stripe's union, so the pool already excludes
  // every other participant (anti-affinity survives the move).
  const net::NodeId mm_node = mm_.node_for(key);
  MetadataManager& shard = mm_.shard_for(key);
  net_.send(source.node_id(), mm_node, net::MessageKind::kReplicaListQuery,
            ReplicaListQueryMsg::estimated_size(), [this, &shard, mm_node, drain, key, settle] {
              ReplicaListReplyMsg reply = shard.handle_replica_list_query(key);
              const Bytes reply_size = reply.estimated_size();
              net_.send(mm_node, drain->source->node_id(), net::MessageKind::kReplicaListReply,
                        reply_size, [this, drain, key, settle, reply = std::move(reply)] {
                          ResourceManager& src = *drain->source;
                          if (!src.is_online() || src.epoch() != drain->source_epoch ||
                              !src.has_replica(key)) {
                            settle(false, Bytes{});
                            return;
                          }
                          const core::DestinationPool pool{&reply.catalog->bandwidth_tree,
                                                           reply.holder_slots};
                          core::select_destination_slots(cfg_.destination, pool, 1, rng_,
                                                         dest_scratch_, chosen_slots_);
                          if (chosen_slots_.empty()) {
                            settle(false, Bytes{});
                            return;
                          }
                          const net::NodeId dest_node = reply.catalog->rm[chosen_slots_.front()];
                          ResourceManager* dest = rm_by_node(dest_node);
                          if (dest == nullptr) {
                            settle(false, Bytes{});
                            return;
                          }

                          ReplicationRequestMsg request;
                          request.transfer_id = next_transfer_id_++;
                          request.source = src.node_id();
                          request.file = key;
                          request.size = src.disk().size_of(key);
                          request.file_bandwidth = cfg_.transfer_speed;

                          net_.send(src.node_id(), dest_node,
                                    net::MessageKind::kReplicationRequest,
                                    ReplicationRequestMsg::estimated_size(),
                                    [this, drain, key, settle, dest, request] {
                                      if (!dest->is_online()) {
                                        settle(false, Bytes{});
                                        return;
                                      }
                                      const ReplicationResponseMsg response =
                                          dest->handle_replication_request(request);
                                      const net::MessageKind kind =
                                          response.accepted ? net::MessageKind::kReplicationAccept
                                                            : net::MessageKind::kReplicationReject;
                                      net_.send(dest->node_id(), drain->source->node_id(), kind,
                                                ReplicationResponseMsg::estimated_size(),
                                                [this, drain, key, settle, dest, response] {
                                                  if (!response.accepted) {
                                                    settle(false, Bytes{});
                                                    return;
                                                  }
                                                  start_transfer(drain, key, settle, *dest);
                                                });
                                    });
                        });
            });
}

void RebalanceAgent::start_transfer(const std::shared_ptr<Drain>& drain, FileId key,
                                    const SettleFn& settle, ResourceManager& dest) {
  ResourceManager& source = *drain->source;
  if (!source.is_online() || source.epoch() != drain->source_epoch ||
      !source.has_replica(key)) {
    if (dest.is_online()) dest.cancel_pending_replication(key);
    settle(false, Bytes{});
    return;
  }

  const Bytes size = source.disk().size_of(key);
  const storage::FlowId src_flow = source.begin_replication_out(key, cfg_.transfer_speed);
  const storage::FlowId dst_flow = dest.begin_replication_in(key, cfg_.transfer_speed);
  const SimTime duration = cfg_.transfer_speed.time_to_transfer(size);
  ResourceManager* dest_ptr = &dest;
  const std::uint64_t src_epoch = source.epoch();
  const std::uint64_t dst_epoch = dest.epoch();
  const SimTime transfer_started = sim_.now();

  sim_.schedule_after(duration, [this, drain, key, settle, dest_ptr, src_flow, dst_flow,
                                 src_epoch, dst_epoch, size, transfer_started] {
    ResourceManager& src = *drain->source;
    ResourceManager& dst = *dest_ptr;
    if (src.epoch() == src_epoch) src.end_replication_out(src_flow);
    const net::NodeId src_node = src.node_id();
    const net::NodeId dst_node = dst.node_id();
    const auto move_span = [this, src_node, dst_node, key, size,
                            transfer_started](const char* outcome) {
      if (obs_ == nullptr) return;
      obs_->trace.complete(obs_track_, "migrate", "rebalance", transfer_started,
                           {obs::arg("key", static_cast<std::uint64_t>(key)),
                            obs::arg("src", static_cast<std::uint64_t>(src_node.value())),
                            obs::arg("dst", static_cast<std::uint64_t>(dst_node.value())),
                            obs::arg("bytes", static_cast<std::uint64_t>(size.count())),
                            obs::arg("outcome", outcome)});
    };
    if (dst.epoch() != dst_epoch || !dst.is_online() || src.epoch() != src_epoch) {
      move_span("aborted");
      if (dst.epoch() == dst_epoch && dst.is_online()) dst.abort_replication_in(dst_flow, key);
      settle(false, Bytes{});
      return;
    }
    const Status stored = dst.finish_replication_in(dst_flow, key);
    if (!stored.is_ok()) {
      move_span("store_failed");
      Log::debug("rebalance: migration of key %llu failed to store: %s",
                 static_cast<unsigned long long>(key), stored.to_string().c_str());
      settle(false, Bytes{});
      return;
    }
    move_span("moved");

    // Add-before-remove: the destination commits its copy to the MM first;
    // only then does the source delete and deregister its own. The key is
    // never below its original copy count in the MM's view.
    ReplicationDoneMsg done;
    done.rm = dst.node_id();
    done.file = key;
    MetadataManager& shard = mm_.shard_for(key);
    net_.send(dst.node_id(), mm_.node_for(key), net::MessageKind::kReplicationDone,
              ReplicationDoneMsg::estimated_size(),
              [this, &shard, done, drain, key, settle, size, src_epoch] {
                shard.handle_replication_done(done);
                ResourceManager& source_rm = *drain->source;
                if (source_rm.epoch() == src_epoch && source_rm.is_online() &&
                    source_rm.has_replica(key) && source_rm.delete_replica(key).is_ok()) {
                  ReplicaDeleteMsg del;
                  del.rm = source_rm.node_id();
                  del.file = key;
                  MetadataManager& owner = mm_.shard_for(key);
                  net_.send(source_rm.node_id(), mm_.node_for(key),
                            net::MessageKind::kReplicaDelete, ReplicaDeleteMsg::estimated_size(),
                            [&owner, del] { owner.handle_replica_delete(del); });
                }
                settle(true, size);
              });
  });
}

void RebalanceAgent::finish_drain(const std::shared_ptr<Drain>& drain) {
  ++counters_.drains_completed;
  if (obs_ != nullptr) {
    obs_->trace.complete(
        obs_track_, "drain", "rebalance", drain->started,
        {obs::arg("source", static_cast<std::uint64_t>(drain->source->node_id().value())),
         obs::arg("migrated", static_cast<std::uint64_t>(drain->migrated)),
         obs::arg("failed", static_cast<std::uint64_t>(drain->failed))});
  }
  if (drain->done) drain->done(drain->migrated, drain->failed);
}

}  // namespace sqos::dfs
