#include "dfs/replication_agent.hpp"

#include <cassert>

#include "core/destination_selector.hpp"
#include "core/replication_planner.hpp"
#include "obs/recorder.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

ReplicationAgent::ReplicationAgent(sim::Simulator& simulator, net::Network& network,
                                   MetadataDirectory& mm, const FileDirectory& directory,
                                   const core::ReplicationConfig& config, const Rng& root)
    : sim_{simulator},
      net_{network},
      mm_{mm},
      directory_{directory},
      cfg_{config},
      rng_{root.fork("replication")},
      drain_rng_{root.fork("rebalance")} {}

void ReplicationAgent::attach_rms(const RmIndex& rms) {
  rm_index_ = &rms;
  for (net::NodeId node : rms.nodes()) {
    ResourceManager* rm = rms.by_node(node);
    assert(rm != nullptr);
    rm->attach_replication_agent(this);
  }
}

ResourceManager* ReplicationAgent::rm_by_node(net::NodeId id) const {
  return rm_index_ == nullptr ? nullptr : rm_index_->by_node(id);
}

// --- the session legs -----------------------------------------------------------

template <typename OnReply>
void ReplicationAgent::ask_non_holders(ResourceManager& source, FileId key, OnReply on_reply) {
  // Source -> owning MM shard: which RMs lack a replica of `key`?
  const net::NodeId mm_node = mm_.node_for(key);
  MetadataManager& shard = mm_.shard_for(key);
  net_.send(source.node_id(), mm_node, net::MessageKind::kReplicaListQuery,
            ReplicaListQueryMsg::estimated_size(), [this, &shard, mm_node, &source, key, on_reply] {
              // Move the reply through the delivery closure — it carries a
              // shared catalog snapshot + the key's few holder slots, so the
              // capture costs O(holders), not O(cluster).
              ReplicaListReplyMsg reply = shard.handle_replica_list_query(key);
              const Bytes size = reply.estimated_size();
              net_.send(mm_node, source.node_id(), net::MessageKind::kReplicaListReply, size,
                        [on_reply, reply = std::move(reply)] { on_reply(reply); });
            });
}

template <typename OnResponse>
void ReplicationAgent::request_copy(ResourceManager& source, ResourceManager& dest, FileId key,
                                    Bytes size, Bandwidth file_bandwidth,
                                    OnResponse on_response) {
  ReplicationRequestMsg request;
  request.transfer_id = next_transfer_id_++;
  request.source = source.node_id();
  request.file = key;
  request.size = size;
  request.file_bandwidth = file_bandwidth;
  net_.send(source.node_id(), dest.node_id(), net::MessageKind::kReplicationRequest,
            ReplicationRequestMsg::estimated_size(), [this, &source, &dest, request, on_response] {
              // A request lost at a dead destination counts as a rejection.
              if (!dest.is_online()) {
                on_response(false);
                return;
              }
              const bool accepted = dest.handle_replication_request(request).accepted;
              net_.send(dest.node_id(), source.node_id(),
                        accepted ? net::MessageKind::kReplicationAccept
                                 : net::MessageKind::kReplicationReject,
                        ReplicationResponseMsg::estimated_size(),
                        [on_response, accepted] { on_response(accepted); });
            });
}

template <typename OnLanded>
void ReplicationAgent::transfer(ResourceManager& source, ResourceManager& dest, FileId key,
                                Bytes size, OnLanded on_landed) {
  const storage::FlowId src_flow = source.begin_replication_out(key, cfg_.transfer_speed);
  const storage::FlowId dst_flow = dest.begin_replication_in(key, cfg_.transfer_speed);
  const std::uint64_t src_epoch = source.epoch();
  const std::uint64_t dst_epoch = dest.epoch();
  const SimTime started = sim_.now();
  sim_.schedule_after(cfg_.transfer_speed.time_to_transfer(size),
                      [this, &source, &dest, key, size, src_flow, dst_flow, src_epoch, dst_epoch,
                       started, on_landed] {
    // A crash on either endpoint aborts the copy: the crashed side's lane
    // flows and pending state were already cleared by fail().
    if (source.epoch() == src_epoch) source.end_replication_out(src_flow);
    CopyOutcome outcome = CopyOutcome::kAborted;
    if (dest.epoch() != dst_epoch || !dest.is_online() || source.epoch() != src_epoch) {
      if (dest.epoch() == dst_epoch && dest.is_online()) dest.abort_replication_in(dst_flow, key);
    } else {
      const Status stored = dest.finish_replication_in(dst_flow, key);
      outcome = stored.is_ok() ? CopyOutcome::kStored : CopyOutcome::kStoreFailed;
      if (!stored.is_ok()) {
        Log::debug("replication copy of key %llu failed to store: %s",
                   static_cast<unsigned long long>(key), stored.to_string().c_str());
      }
    }
    if (obs_ != nullptr) {
      static constexpr const char* kOutcomes[] = {"aborted", "store_failed", "stored"};
      obs_->trace.complete(obs_track_, "copy", "replication", started,
                           {obs::arg("file", static_cast<std::uint64_t>(key)),
                            obs::arg("src", static_cast<std::uint64_t>(source.node_id().value())),
                            obs::arg("dst", static_cast<std::uint64_t>(dest.node_id().value())),
                            obs::arg("bytes", static_cast<std::uint64_t>(size.count())),
                            obs::arg("outcome", kOutcomes[static_cast<int>(outcome)])});
    }
    on_landed(outcome);
  });
}

template <typename OnCommitted>
void ReplicationAgent::commit(ResourceManager& dest, FileId key, OnCommitted on_committed) {
  // Destination -> owning MM shard: the new replica is available.
  ReplicationDoneMsg done;
  done.rm = dest.node_id();
  done.file = key;
  MetadataManager& shard = mm_.shard_for(key);
  net_.send(dest.node_id(), mm_.node_for(key), net::MessageKind::kReplicationDone,
            ReplicationDoneMsg::estimated_size(), [&shard, done, on_committed] {
              shard.handle_replication_done(done);
              on_committed();
            });
}

bool ReplicationAgent::deregister(ResourceManager& rm, FileId key) {
  if (!rm.delete_replica(key).is_ok()) return false;
  ReplicaDeleteMsg del;
  del.rm = rm.node_id();
  del.file = key;
  MetadataManager& shard = mm_.shard_for(key);
  net_.send(rm.node_id(), mm_.node_for(key), net::MessageKind::kReplicaDelete,
            ReplicaDeleteMsg::estimated_size(),
            [&shard, del] { shard.handle_replica_delete(del); });
  return true;
}

// --- §V rounds ------------------------------------------------------------------

void ReplicationAgent::maybe_trigger(ResourceManager& source) {
  if (!cfg_.enabled) return;
  if (!source.trigger().should_trigger(sim_.now(), source.remaining(), source.cap())) return;
  start_round(source);
}

void ReplicationAgent::start_round(ResourceManager& source) {
  ++counters_.rounds_started;
  // Locking the source role immediately also arms the 60 s cooldown, so a
  // round that finds nothing to copy does not re-fire on every request.
  source.trigger().begin_source(sim_.now());

  // "What to replicate": the busiest files covering the configured fraction
  // of this RM's access count, still present on disk, for which the RM can
  // afford the source-side reserve B_REV (§V).
  std::vector<FileId> files;
  for (const FileId f : source.heat().busiest_cover(cfg_.busiest_cover)) {
    if (!source.has_replica(f)) continue;
    const FileMeta& meta = directory_.get(f);
    if (!core::source_eligible(cfg_, meta.bitrate)) continue;
    files.push_back(f);
  }

  if (files.empty()) {
    ++counters_.rounds_empty;
    source.trigger().end_source(sim_.now());
    return;
  }

  auto round = std::make_shared<Round>();
  round->source = &source;
  round->source_epoch = source.epoch();
  round->started = sim_.now();
  round->pending_queries = files.size();
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "round_start", "replication",
                        {obs::arg("source", static_cast<std::uint64_t>(source.node_id().value())),
                         obs::arg("files", static_cast<std::uint64_t>(files.size()))});
  }

  // Round deadline: lost control messages (partition, crashed MM path) must
  // not wedge the source role forever.
  arm_round_deadline(round);

  for (const FileId file : files) {
    ask_non_holders(source, file, [this, round, file](const ReplicaListReplyMsg& reply) {
      plan_file(round, file, reply);
      --round->pending_queries;
      finish_round_part(round);
    });
  }
}

void ReplicationAgent::arm_round_deadline(const std::shared_ptr<Round>& round) {
  sim_.schedule_after(cfg_.round_timeout, [this, round] {
    if (round->closed) return;
    if (round->outstanding_copies > 0) {
      // Data transfers are legitimately slow (a calibrated file takes
      // minutes at 1.8 Mbit/s) and always complete through simulator
      // events; only control-plane silence is a wedge. Check again later.
      arm_round_deadline(round);
      return;
    }
    // No copies moving yet control work is still "pending": those messages
    // were lost. Release the source role.
    ++counters_.rounds_timed_out;
    round->closed = true;
    if (obs_ != nullptr) {
      obs_->trace.complete(
          obs_track_, "replication_round", "replication", round->started,
          {obs::arg("source", static_cast<std::uint64_t>(round->source->node_id().value())),
           obs::arg("outcome", "timeout")});
    }
    if (round->source->epoch() == round->source_epoch) {
      round->source->trigger().end_source(sim_.now());
    }
  });
}

void ReplicationAgent::plan_file(const std::shared_ptr<Round>& round, FileId file,
                                 const ReplicaListReplyMsg& reply) {
  ResourceManager& source = *round->source;
  if (!source.is_online()) return;        // source crashed mid-round
  if (!source.has_replica(file)) return;  // deleted since the query went out
  if (reply.current_replicas == 0) {
    Log::warn("replication: MM lost track of file %llu", static_cast<unsigned long long>(file));
    return;
  }

  const core::RepCountPlan plan =
      core::plan_rep_count(cfg_.n_rep, reply.current_replicas, cfg_.n_maxr);

  // Destination choice straight off the catalog snapshot: the pool is the
  // complement of the holder slots, LBF resolves through the bandwidth
  // tournament tree in O(log n) — no materialized candidate vector.
  const core::DestinationPool pool{&reply.catalog->bandwidth_tree, reply.holder_slots};
  core::select_destination_slots(cfg_.destination, pool, plan.n_rep, rng_, dest_scratch_,
                                 chosen_slots_);
  if (chosen_slots_.empty()) return;

  const FileMeta& meta = directory_.get(file);
  auto file_plan = std::make_shared<FilePlan>();
  file_plan->file = file;
  file_plan->delete_self = plan.delete_self;

  for (const std::uint32_t pick : chosen_slots_) {
    ResourceManager* dest = rm_by_node(reply.catalog->rm[pick]);
    if (dest == nullptr) continue;
    ++round->pending_requests;
    request_copy(source, *dest, file, meta.size, meta.bitrate,
                 [this, round, file_plan, dest](bool accepted) {
                   --round->pending_requests;
                   if (accepted) {
                     start_copy(round, file_plan, *dest);
                   } else {
                     ++counters_.destination_rejects;
                   }
                   finish_round_part(round);
                 });
  }
}

void ReplicationAgent::start_copy(const std::shared_ptr<Round>& round,
                                  const std::shared_ptr<FilePlan>& file_plan,
                                  ResourceManager& dest) {
  ResourceManager& source = *round->source;
  const FileId file = file_plan->file;

  // The source may have lost the replica (self-delete of an earlier round
  // file does not apply — same round only deletes after copies — but a
  // capacity failure path could). Roll the destination's pending state back.
  if (!source.is_online() || !source.has_replica(file)) {
    ++counters_.copies_failed;
    if (dest.is_online()) dest.cancel_pending_replication(file);
    return;
  }

  ++counters_.copies_started;
  round->any_copy_started = true;
  ++round->outstanding_copies;
  ++file_plan->copies_outstanding;

  const Bytes size = directory_.get(file).size;
  transfer(source, dest, file, size,
           [this, round, file_plan, &dest, size](CopyOutcome outcome) {
             const FileId f = file_plan->file;
             --round->outstanding_copies;
             --file_plan->copies_outstanding;
             if (outcome == CopyOutcome::kStored) {
               ++counters_.copies_completed;
               counters_.bytes_copied += static_cast<std::uint64_t>(size.count());
               file_plan->any_success = true;
               commit(dest, f, [] {});
             } else {
               ++counters_.copies_failed;
             }
             // Over-bound rule (§V): the replication "exceeds the upper bound
             // of the number of replicas", so the source deletes the replica
             // on itself. An aborted last copy skips it.
             ResourceManager& src = *round->source;
             if (outcome != CopyOutcome::kAborted && file_plan->copies_outstanding == 0 &&
                 file_plan->delete_self && file_plan->any_success && src.has_replica(f) &&
                 deregister(src, f)) {
               ++counters_.self_deletes;
             }
             finish_round_part(round);
           });
}

void ReplicationAgent::finish_round_part(const std::shared_ptr<Round>& round) {
  if (round->pending_queries != 0 || round->pending_requests != 0 ||
      round->outstanding_copies != 0) {
    return;
  }
  if (round->closed) return;
  round->closed = true;
  if (obs_ != nullptr) {
    obs_->trace.complete(
        obs_track_, "replication_round", "replication", round->started,
        {obs::arg("source", static_cast<std::uint64_t>(round->source->node_id().value())),
         obs::arg("outcome", round->any_copy_started ? "copied" : "empty")});
  }
  // If the source crashed mid-round its trigger state was already reset by
  // fail(); ending the stale round's source role would corrupt the fresh one.
  if (round->source->epoch() == round->source_epoch) {
    round->source->trigger().end_source(sim_.now());
  }
}

// --- drains ---------------------------------------------------------------------

void ReplicationAgent::drain(ResourceManager& source, DrainCallback done) {
  ++counters_.drains_started;
  auto drain_state = std::make_shared<Drain>();
  drain_state->source = &source;
  drain_state->source_epoch = source.epoch();
  drain_state->started = sim_.now();
  drain_state->keys = source.disk().file_keys();
  drain_state->done = std::move(done);
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "drain_start", "replication",
                        {obs::arg("source", static_cast<std::uint64_t>(source.node_id().value())),
                         obs::arg("keys", static_cast<std::uint64_t>(drain_state->keys.size()))});
  }
  migrate_next(drain_state);
}

bool ReplicationAgent::rebalance_once() {
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

void ReplicationAgent::migrate_next(const std::shared_ptr<Drain>& drain) {
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
    return;  // sequential: settle() calls migrate_next again
  }
  finish_drain(drain);
}

void ReplicationAgent::migrate_key(const std::shared_ptr<Drain>& drain, FileId key) {
  ResourceManager& source = *drain->source;
  ++counters_.migrations_started;
  in_flight_keys_.insert(key);
  const auto move = std::make_shared<Migration>(Migration{drain, key, source.disk().size_of(key)});

  // Whichever of the migration outcome and the deadline fires first settles
  // the key; lost control messages (partition) must not wedge the drain.
  sim_.schedule_after(cfg_.transfer_speed.time_to_transfer(move->size) + cfg_.round_timeout,
                      [this, move] { settle(move, false); });

  // "Where to": one destination off the owning MM shard's non-holder list.
  ask_non_holders(source, key, [this, move](const ReplicaListReplyMsg& reply) {
    if (!source_holds(*move)) {
      settle(move, false);
      return;
    }
    const core::DestinationPool pool{&reply.catalog->bandwidth_tree, reply.holder_slots};
    core::select_destination_slots(cfg_.destination, pool, 1, drain_rng_, dest_scratch_,
                                   chosen_slots_);
    ResourceManager* dest =
        chosen_slots_.empty() ? nullptr : rm_by_node(reply.catalog->rm[chosen_slots_.front()]);
    if (dest == nullptr) {
      settle(move, false);
      return;
    }
    request_copy(*move->drain->source, *dest, move->key, move->size, cfg_.transfer_speed,
                 [this, move, dest](bool accepted) {
                   if (accepted) {
                     move_key(move, *dest);
                   } else {
                     settle(move, false);
                   }
                 });
  });
}

void ReplicationAgent::move_key(const std::shared_ptr<Migration>& move, ResourceManager& dest) {
  if (!source_holds(*move)) {
    if (dest.is_online()) dest.cancel_pending_replication(move->key);
    settle(move, false);
    return;
  }
  transfer(*move->drain->source, dest, move->key, move->size,
           [this, move, &dest](CopyOutcome outcome) {
             if (outcome != CopyOutcome::kStored) {
               settle(move, false);
               return;
             }
             // Add-before-remove: the source deletes and deregisters its own
             // copy only once the destination's commit has landed, so the
             // key is never below its original copy count in the MM's view.
             commit(dest, move->key, [this, move] {
               if (source_holds(*move)) (void)deregister(*move->drain->source, move->key);
               settle(move, true);
             });
           });
}

bool ReplicationAgent::source_holds(const Migration& move) const {
  const ResourceManager& source = *move.drain->source;
  return source.is_online() && source.epoch() == move.drain->source_epoch &&
         source.has_replica(move.key);
}

void ReplicationAgent::settle(const std::shared_ptr<Migration>& move, bool moved) {
  if (move->settled) return;
  move->settled = true;
  in_flight_keys_.erase(move->key);
  if (moved) {
    ++move->drain->migrated;
    ++counters_.migrations_completed;
    counters_.bytes_moved += static_cast<std::uint64_t>(move->size.count());
  } else {
    ++move->drain->failed;
    ++counters_.migrations_failed;
  }
  migrate_next(move->drain);
}

void ReplicationAgent::finish_drain(const std::shared_ptr<Drain>& drain) {
  ++counters_.drains_completed;
  if (obs_ != nullptr) {
    obs_->trace.complete(
        obs_track_, "drain", "replication", drain->started,
        {obs::arg("source", static_cast<std::uint64_t>(drain->source->node_id().value())),
         obs::arg("migrated", static_cast<std::uint64_t>(drain->migrated)),
         obs::arg("failed", static_cast<std::uint64_t>(drain->failed))});
  }
  if (drain->done) drain->done(drain->migrated, drain->failed);
}

}  // namespace sqos::dfs
