#include "dfs/replication_agent.hpp"

#include <cassert>

#include "core/destination_selector.hpp"
#include "core/replication_planner.hpp"
#include "obs/recorder.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

ReplicationAgent::ReplicationAgent(sim::Simulator& simulator, net::Network& network,
                                   MetadataDirectory& mm, const FileDirectory& directory,
                                   const core::ReplicationConfig& config, Rng rng)
    : sim_{simulator},
      net_{network},
      mm_{mm},
      directory_{directory},
      cfg_{config},
      rng_{std::move(rng)} {}

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
    // Source -> owning MM shard: which RMs lack a replica of `file`?
    const net::NodeId mm_node = mm_.node_for(file);
    MetadataManager& shard = mm_.shard_for(file);
    net_.send(source.node_id(), mm_node, net::MessageKind::kReplicaListQuery,
              ReplicaListQueryMsg::estimated_size(), [this, &shard, mm_node, round, file] {
                // Move the reply through the delivery closure — it carries a
                // shared catalog snapshot + the file's few holder slots, so
                // the capture costs O(holders), not O(cluster).
                ReplicaListReplyMsg reply = shard.handle_replica_list_query(file);
                const Bytes size = reply.estimated_size();
                net_.send(mm_node, round->source->node_id(),
                          net::MessageKind::kReplicaListReply, size,
                          [this, round, file, reply = std::move(reply)] {
                            plan_file(round, file, reply);
                            --round->pending_queries;
                            finish_round_part(round);
                          });
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
    const net::NodeId dest_node = reply.catalog->rm[pick];
    ResourceManager* dest = rm_by_node(dest_node);
    if (dest == nullptr) continue;

    ReplicationRequestMsg request;
    request.transfer_id = next_transfer_id_++;
    request.source = source.node_id();
    request.file = file;
    request.size = meta.size;
    request.file_bandwidth = meta.bitrate;

    ++round->pending_requests;
    net_.send(source.node_id(), dest_node, net::MessageKind::kReplicationRequest,
              ReplicationRequestMsg::estimated_size(), [this, round, file_plan, dest, request] {
                if (!dest->is_online()) {
                  // Request lost at the dead destination: count it as a
                  // rejection and let the round bookkeeping continue.
                  ++counters_.destination_rejects;
                  --round->pending_requests;
                  finish_round_part(round);
                  return;
                }
                const ReplicationResponseMsg response = dest->handle_replication_request(request);
                const net::MessageKind kind = response.accepted
                                                  ? net::MessageKind::kReplicationAccept
                                                  : net::MessageKind::kReplicationReject;
                net_.send(dest->node_id(), round->source->node_id(), kind,
                          ReplicationResponseMsg::estimated_size(),
                          [this, round, file_plan, dest, response] {
                            --round->pending_requests;
                            if (response.accepted) {
                              start_copy(round, file_plan, *dest);
                            } else {
                              ++counters_.destination_rejects;
                            }
                            finish_round_part(round);
                          });
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

  const FileMeta& meta = directory_.get(file);
  const storage::FlowId src_flow = source.begin_replication_out(file, cfg_.transfer_speed);
  const storage::FlowId dst_flow = dest.begin_replication_in(file, cfg_.transfer_speed);
  const SimTime duration = cfg_.transfer_speed.time_to_transfer(meta.size);
  ResourceManager* dest_ptr = &dest;
  const std::uint64_t src_epoch = source.epoch();
  const std::uint64_t dst_epoch = dest.epoch();
  const SimTime copy_started = sim_.now();

  sim_.schedule_after(duration, [this, round, file_plan, dest_ptr, src_flow, dst_flow,
                                 src_epoch, dst_epoch, copy_started] {
    ResourceManager& src = *round->source;
    ResourceManager& dst = *dest_ptr;
    const FileId f = file_plan->file;
    // A crash on either endpoint aborts the copy: the crashed side's lane
    // flows and pending state were already cleared by fail().
    if (src.epoch() == src_epoch) src.end_replication_out(src_flow);
    const auto copy_span = [this, &src, &dst, f, copy_started](const char* outcome) {
      if (obs_ == nullptr) return;
      obs_->trace.complete(obs_track_, "copy", "replication", copy_started,
                           {obs::arg("file", static_cast<std::uint64_t>(f)),
                            obs::arg("src", static_cast<std::uint64_t>(src.node_id().value())),
                            obs::arg("dst", static_cast<std::uint64_t>(dst.node_id().value())),
                            obs::arg("bytes",
                                     static_cast<std::uint64_t>(directory_.get(f).size.count())),
                            obs::arg("outcome", outcome)});
    };
    if (dst.epoch() != dst_epoch || !dst.is_online() || src.epoch() != src_epoch) {
      ++counters_.copies_failed;
      copy_span("aborted");
      if (dst.epoch() == dst_epoch && dst.is_online()) dst.abort_replication_in(dst_flow, f);
      --round->outstanding_copies;
      --file_plan->copies_outstanding;
      finish_round_part(round);
      return;
    }
    const Status stored = dst.finish_replication_in(dst_flow, f);
    copy_span(stored.is_ok() ? "stored" : "store_failed");
    if (stored.is_ok()) {
      ++counters_.copies_completed;
      counters_.bytes_copied += static_cast<std::uint64_t>(directory_.get(f).size.count());
      file_plan->any_success = true;
      // Destination -> owning MM shard: the new replica is available.
      ReplicationDoneMsg done;
      done.rm = dst.node_id();
      done.file = f;
      MetadataManager& shard = mm_.shard_for(f);
      net_.send(dst.node_id(), mm_.node_for(f), net::MessageKind::kReplicationDone,
                ReplicationDoneMsg::estimated_size(), [&shard, done] {
                  shard.handle_replication_done(done);
                });
    } else {
      ++counters_.copies_failed;
      Log::debug("replication copy of file %llu failed to store: %s",
                 static_cast<unsigned long long>(f), stored.to_string().c_str());
    }

    --file_plan->copies_outstanding;
    if (file_plan->copies_outstanding == 0 && file_plan->delete_self && file_plan->any_success &&
        src.has_replica(f)) {
      // Over-bound rule (§V): the replication "exceeds the upper bound of the
      // number of replicas", so the source deletes the replica on itself.
      if (src.delete_replica(f).is_ok()) {
        ++counters_.self_deletes;
        ReplicaDeleteMsg del;
        del.rm = src.node_id();
        del.file = f;
        MetadataManager& shard = mm_.shard_for(f);
        net_.send(src.node_id(), mm_.node_for(f), net::MessageKind::kReplicaDelete,
                  ReplicaDeleteMsg::estimated_size(), [&shard, del] {
                    shard.handle_replica_delete(del);
                  });
      }
    }

    --round->outstanding_copies;
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

}  // namespace sqos::dfs
