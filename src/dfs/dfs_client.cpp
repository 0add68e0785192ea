#include "dfs/dfs_client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/recorder.hpp"
#include "qos/qos_manager.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

DfsClient::DfsClient(net::NodeId id, Params params, sim::Simulator& simulator,
                     net::Network& network, MetadataDirectory& mm,
                     const FileDirectory& directory, Rng rng)
    : id_{id},
      params_{std::move(params)},
      sim_{simulator},
      net_{network},
      mm_{mm},
      directory_{directory},
      policy_{params_.policy},
      rng_{std::move(rng)} {}

ResourceManager* DfsClient::rm_by_node(net::NodeId id) const {
  return rm_index_ == nullptr ? nullptr : rm_index_->by_node(id);
}

void DfsClient::stream_file(FileId file, Callback done) {
  if (params_.layout.is_ec()) {
    stream_striped(file, std::move(done));
    return;
  }
  if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, directory_.get(file).size);
  OpenContext ctx;
  ctx.file = file;
  ctx.required = directory_.get(file).bitrate;
  ctx.explicit_session = false;
  ctx.done = std::move(done);
  start_negotiation(next_open_id_++, std::move(ctx));
}

void DfsClient::open(FileId file, std::function<void(Result<std::uint64_t>)> opened) {
  if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, directory_.get(file).size);
  OpenContext ctx;
  ctx.file = file;
  ctx.required = directory_.get(file).bitrate;
  ctx.explicit_session = true;
  ctx.opened = std::move(opened);
  start_negotiation(next_open_id_++, std::move(ctx));
}

void DfsClient::open_write(FileId file, std::function<void(Result<std::uint64_t>)> opened) {
  if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, directory_.get(file).size);
  OpenContext ctx;
  ctx.file = file;
  ctx.required = directory_.get(file).bitrate;
  ctx.explicit_session = true;
  ctx.write_session = true;
  ctx.opened = std::move(opened);
  // The CNP broadcast path reaches every RM, which is exactly the candidate
  // set a fresh file needs; under ECNP the MM's holder query would return
  // nothing, so force the broadcast exploration for write sessions.
  ++counters_.opens_attempted;
  ctx.started = sim_.now();
  const std::uint64_t open_id = next_open_id_++;
  opens_.emplace(open_id, std::move(ctx));
  send_cfps(open_id, rm_index_->nodes());
}

void DfsClient::write_file(FileId file, std::size_t replicas, Callback done) {
  ++counters_.writes_attempted;
  const FileMeta& meta = directory_.get(file);
  if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, meta.size);
  const std::uint64_t write_id = next_open_id_++;

  WriteContext ctx;
  ctx.file = file;
  ctx.required = meta.bitrate;
  ctx.size = meta.size;
  ctx.started = sim_.now();
  ctx.replicas = replicas == 0 ? 1 : replicas;
  ctx.done = std::move(done);
  writes_.emplace(write_id, std::move(ctx));

  // Exploration deadline: an unreachable matchmaker fails the write.
  writes_.at(write_id).timeout_event =
      sim_.schedule_after(params_.bid_timeout, [this, write_id] {
        const auto it = writes_.find(write_id);
        if (it == writes_.end() || it->second.expected_bids > 0 || it->second.evaluated) return;
        ++counters_.bid_timeouts;
        ++counters_.writes_failed;
        WriteContext failed = std::move(it->second);
        writes_.erase(it);
        if (failed.done) failed.done(Status::unavailable("matchmaker unreachable"));
      });

  // Exploration: the owning shard's non-holder list — for a fresh file,
  // every registered RM — are the placement candidates.
  const net::NodeId mm_node = mm_.node_for(file);
  MetadataManager& shard = mm_.shard_for(file);
  net_.send(id_, mm_node, net::MessageKind::kReplicaListQuery,
            ReplicaListQueryMsg::estimated_size(), [this, &shard, mm_node, write_id, file] {
              // The reply carries a shared catalog snapshot + holder slots
              // instead of a materialized O(n) candidate vector; moving it
              // through the delivery closure costs O(holders).
              ReplicaListReplyMsg reply = shard.handle_replica_list_query(file);
              const Bytes size = reply.estimated_size();
              net_.send(mm_node, id_, net::MessageKind::kReplicaListReply, size,
                        [this, write_id, reply = std::move(reply)] {
                          on_write_candidates(write_id, reply);
                        });
            });
}

void DfsClient::on_write_candidates(std::uint64_t write_id, const ReplicaListReplyMsg& reply) {
  const auto it = writes_.find(write_id);
  if (it == writes_.end()) return;
  sim_.cancel(it->second.timeout_event);
  const std::size_t candidates = reply.non_holder_count();
  if (candidates == 0) {
    ++counters_.writes_failed;
    WriteContext ctx = std::move(it->second);
    writes_.erase(it);
    if (ctx.done) ctx.done(Status::unavailable("no RM available for the write"));
    return;
  }

  WriteContext& ctx = it->second;
  ctx.expected_bids = candidates;
  ctx.timeout_event = sim_.schedule_after(params_.bid_timeout, [this, write_id] {
    const auto wit = writes_.find(write_id);
    if (wit == writes_.end() || wit->second.evaluated) return;
    ++counters_.bid_timeouts;
    evaluate_write_bids(write_id);
  });

  CfpMsg cfp;
  cfp.open_id = write_id;
  cfp.file = ctx.file;
  cfp.required = ctx.required;
  for (std::size_t i = 0; i < candidates; ++i) {
    const net::NodeId target = reply.non_holder(i);
    ResourceManager* rm = rm_by_node(target);
    assert(rm != nullptr);
    ++counters_.cfps_sent;
    net_.send(id_, target, net::MessageKind::kCfp, CfpMsg::estimated_size(), [this, rm, cfp] {
      if (!rm->is_online()) return;
      const BidMsg bid = rm->handle_cfp(cfp);
      net_.send(rm->node_id(), id_, net::MessageKind::kBid, BidMsg::estimated_size(),
                [this, bid] { on_write_bid(bid.open_id, bid); });
    });
  }
}

void DfsClient::on_write_bid(std::uint64_t write_id, const BidMsg& bid) {
  const auto it = writes_.find(write_id);
  if (it == writes_.end() || it->second.evaluated) return;
  ++counters_.bids_received;
  it->second.bids.push_back(bid);
  if (it->second.bids.size() == it->second.expected_bids) {
    sim_.cancel(it->second.timeout_event);
    evaluate_write_bids(write_id);
  }
}

void DfsClient::evaluate_write_bids(std::uint64_t write_id) {
  auto& ctx = writes_.at(write_id);
  ctx.evaluated = true;

  // Admissible placement targets: disk space for the replica, and — in firm
  // real-time — the assured write bandwidth.
  std::vector<BidMsg> candidates;
  for (const BidMsg& b : ctx.bids) {
    if (b.free_disk_bytes < static_cast<double>(ctx.size.count())) continue;
    if (!core::admits(params_.mode, b.info, ctx.required)) continue;
    candidates.push_back(b);
  }
  if (candidates.empty()) {
    ++counters_.writes_failed;
    const auto it = writes_.find(write_id);
    WriteContext done_ctx = std::move(it->second);
    writes_.erase(it);
    if (done_ctx.done) {
      done_ctx.done(Status::resource_exhausted("no RM can accept the written replica"));
    }
    return;
  }

  // Rank by policy score (random policy: random order) and take the best K.
  if (policy_.weights().is_random()) {
    const auto order = rng_.permutation(candidates.size());
    std::vector<BidMsg> shuffled;
    shuffled.reserve(candidates.size());
    for (const std::size_t i : order) shuffled.push_back(candidates[i]);
    candidates = std::move(shuffled);
  } else {
    std::sort(candidates.begin(), candidates.end(), [this](const BidMsg& a, const BidMsg& b) {
      return policy_.score(a.info) > policy_.score(b.info);
    });
  }
  ctx.ranked = std::move(candidates);
  const std::size_t k = std::min(ctx.replicas, ctx.ranked.size());
  ctx.pending_writes = k;
  ctx.next_candidate = k;

  // Copy the first-k targets out before dispatching: dispatch_write touches
  // the context map.
  std::vector<net::NodeId> first_targets;
  first_targets.reserve(k);
  for (std::size_t i = 0; i < k; ++i) first_targets.push_back(ctx.ranked[i].rm);
  for (const net::NodeId target : first_targets) dispatch_write(write_id, target);
}

void DfsClient::dispatch_write(std::uint64_t write_id, net::NodeId target) {
  const auto it = writes_.find(write_id);
  if (it == writes_.end()) return;
  const WriteContext& ctx = it->second;
  ResourceManager* rm = rm_by_node(target);
  assert(rm != nullptr);

  DataRequestMsg request;
  request.open_id = write_id;
  request.file = ctx.file;
  request.rate = ctx.required;
  request.firm = params_.mode == core::AllocationMode::kFirm;
  request.auto_complete = true;
  request.write = true;
  request.tenant = params_.tenant;

  // Per-copy deadline (lost request/completion counts as a rejection, which
  // triggers the normal failover to the next-ranked candidate).
  auto settled = std::make_shared<bool>(false);
  const auto settle = [this, settled, target](std::uint64_t id, const DataCompleteMsg& m) {
    if (*settled) return;
    *settled = true;
    on_write_complete(id, target, m);
  };
  const SimTime expected = ctx.required.time_to_transfer(ctx.size);
  sim_.schedule_after(expected + params_.bid_timeout, [settle, request] {
    DataCompleteMsg timed_out;
    timed_out.open_id = request.open_id;
    timed_out.file = request.file;
    timed_out.accepted = false;
    settle(timed_out.open_id, timed_out);
  });

  net_.send(id_, target, net::MessageKind::kDataRequest, DataRequestMsg::estimated_size(),
            [this, rm, request, settle] {
              if (!rm->is_online()) {
                DataCompleteMsg refused;
                refused.open_id = request.open_id;
                refused.file = request.file;
                refused.accepted = false;
                net_.send(rm->node_id(), id_, net::MessageKind::kDataComplete,
                          DataCompleteMsg::estimated_size(),
                          [settle, refused] { settle(refused.open_id, refused); });
                return;
              }
              rm->handle_data_request(id_, request,
                                      [settle, write_id = request.open_id](
                                          const DataCompleteMsg& m) { settle(write_id, m); });
            });
}

void DfsClient::on_write_complete(std::uint64_t write_id, net::NodeId rm,
                                  const DataCompleteMsg& msg) {
  const auto it = writes_.find(write_id);
  if (it == writes_.end()) return;
  WriteContext& ctx = it->second;
  if (msg.accepted) {
    ++ctx.succeeded;
    ++counters_.replicas_written;
    // Commit the durable replica to the owning MM shard. The copy only
    // counts as finished once the commit has landed (read-your-writes); if
    // the commit is lost to a partition, the bookkeeping still completes on
    // a deadline — the replica is durable and anti-entropy (resource
    // refresh) will register it.
    auto settled = std::make_shared<bool>(false);
    const auto finish_one = [this, settled, write_id] {
      if (*settled) return;
      *settled = true;
      const auto wit = writes_.find(write_id);
      if (wit == writes_.end()) return;
      assert(wit->second.pending_writes > 0);
      if (--wit->second.pending_writes == 0) finish_write(write_id);
    };
    ReplicationDoneMsg commit;
    commit.rm = rm;
    commit.file = ctx.file;
    MetadataManager& shard = mm_.shard_for(ctx.file);
    net_.send(id_, mm_.node_for(ctx.file), net::MessageKind::kReplicationDone,
              ReplicationDoneMsg::estimated_size(), [&shard, commit, finish_one] {
                shard.handle_replication_done(commit);
                finish_one();
              });
    sim_.schedule_after(params_.bid_timeout, finish_one);
    return;
  }
  if (ctx.next_candidate < ctx.ranked.size()) {
    // Failover: the target rejected (raced allocation/space, or crashed) —
    // try the next-ranked candidate for this copy.
    const net::NodeId next = ctx.ranked[ctx.next_candidate++].rm;
    dispatch_write(write_id, next);
    return;  // pending count unchanged; the copy is still in flight
  }
  assert(ctx.pending_writes > 0);
  if (--ctx.pending_writes == 0) finish_write(write_id);
}

void DfsClient::finish_write(std::uint64_t write_id) {
  const auto it = writes_.find(write_id);
  WriteContext ctx = std::move(it->second);
  writes_.erase(it);
  if (obs_ != nullptr) {
    obs_->trace.complete(obs_track_, "write", "flow", ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                          obs::arg("replicas", static_cast<std::uint64_t>(ctx.succeeded)),
                          obs::arg("bytes", static_cast<std::uint64_t>(ctx.size.count()))});
  }
  if (ctx.succeeded == 0) {
    ++counters_.writes_failed;
    if (ctx.done) ctx.done(Status::resource_exhausted("every write replica was rejected"));
    return;
  }
  if (ctx.done) ctx.done(Status::ok());
}

void DfsClient::release(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    Log::warn("%s: release of unknown session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(session));
    return;
  }
  const SessionInfo info = it->second;
  sessions_.erase(it);
  PendingRelease pending;
  pending.info = info;
  pending.msg.open_id = session;
  pending.msg.commit = !info.write;  // a plain release abandons a write session
  pending_releases_.emplace(session, pending);
  send_release(session);
}

void DfsClient::release_write(std::uint64_t session, bool commit) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.write) {
    Log::warn("%s: release_write of unknown write session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(session));
    return;
  }
  const SessionInfo info = it->second;
  sessions_.erase(it);
  PendingRelease pending;
  pending.info = info;
  pending.msg.open_id = session;
  pending.msg.commit = commit;
  pending_releases_.emplace(session, pending);
  send_release(session);
}

void DfsClient::send_release(std::uint64_t session) {
  const auto it = pending_releases_.find(session);
  if (it == pending_releases_.end()) return;
  PendingRelease& pending = it->second;
  ResourceManager* rm = rm_by_node(pending.info.rm);
  assert(rm != nullptr);
  const SessionInfo info = pending.info;
  const ReleaseMsg msg = pending.msg;

  net_.send(id_, info.rm, net::MessageKind::kRelease, ReleaseMsg::estimated_size(),
            [this, rm, info, msg] {
              // A crashed RM freed the session in fail(); after recovery a
              // retried release hits the unknown-session no-op and is acked.
              if (!rm->is_online()) return;
              rm->handle_release(id_, msg);  // idempotent
              if (info.write && msg.commit) {
                // Register the durable replica with the owning MM shard. A
                // lost ack replays this on retry; the MM replica set makes
                // the commit idempotent.
                ReplicationDoneMsg commit_msg;
                commit_msg.rm = info.rm;
                commit_msg.file = info.file;
                MetadataManager& shard = mm_.shard_for(info.file);
                net_.send(info.rm, mm_.node_for(info.file), net::MessageKind::kReplicationDone,
                          ReplicationDoneMsg::estimated_size(), [&shard, commit_msg] {
                            shard.handle_replication_done(commit_msg);
                          });
              }
              net_.send(info.rm, id_, net::MessageKind::kReleaseAck, ReleaseMsg::estimated_size(),
                        [this, open_id = msg.open_id] { on_release_ack(open_id); });
            });

  // Releases lost to a partition must not leak the RM-side allocation, so
  // resend with doubled backoff until acked. Bounded: against a permanently
  // dead RM (whose fail() already freed the session) the retries stop.
  constexpr std::size_t kMaxReleaseAttempts = 10;
  if (++pending.attempt >= kMaxReleaseAttempts) {
    pending_releases_.erase(it);
    return;
  }
  const auto shift = std::min<std::size_t>(pending.attempt - 1, 8);
  pending.retry = sim_.schedule_after(params_.bid_timeout * (std::int64_t{1} << shift),
                                      [this, session] { send_release(session); });
}

void DfsClient::on_release_ack(std::uint64_t session) {
  const auto it = pending_releases_.find(session);
  if (it == pending_releases_.end()) return;  // duplicate ack from a retry
  if (it->second.info.write && it->second.msg.commit) ++counters_.replicas_written;
  sim_.cancel(it->second.retry);
  pending_releases_.erase(it);
}

void DfsClient::query_holders(FileId file,
                              std::function<void(std::vector<net::NodeId>)> reply) {
  // Per-file routing: the query goes to the shard owning this file on the
  // consistent-hash ring (with one shard this is the paper's single MM).
  const net::NodeId mm_node = mm_.node_for(file);
  MetadataManager& shard = mm_.shard_for(file);
  net_.send(id_, mm_node, net::MessageKind::kResourceQuery, ResourceQueryMsg::estimated_size(),
            [this, &shard, mm_node, file, reply = std::move(reply)] {
              const ResourceReplyMsg r = shard.handle_resource_query(file);
              net_.send(mm_node, id_, net::MessageKind::kResourceReply, r.estimated_size(),
                        [reply, holders = r.holders] { reply(holders); });
            });
}

void DfsClient::start_negotiation(std::uint64_t open_id, OpenContext ctx) {
  ++counters_.opens_attempted;
  ctx.started = sim_.now();
  opens_.emplace(open_id, std::move(ctx));

  if (params_.negotiation == Negotiation::kCnp) {
    // Plain CNP: no matchmaker — broadcast the CFP to every known RM.
    send_cfps(open_id, rm_index_->nodes());
    return;
  }
  // Holder cache: a repeat open of a recently explored file skips the MM
  // round trip entirely.
  const FileId cached_file = opens_.at(open_id).file;
  if (params_.holder_cache_ttl > SimTime::zero()) {
    const auto hit = holder_cache_.find(cached_file);
    if (hit != holder_cache_.end() && hit->second.expires > sim_.now()) {
      ++counters_.holder_cache_hits;
      on_holders(open_id, hit->second.holders);
      return;
    }
    ++counters_.holder_cache_misses;
  }

  // ECNP resource-exploration phase: ask the file's MM shard for the
  // eligible RMs first. The exploration has its own deadline — an
  // unreachable matchmaker (network partition) must fail the open, not hang
  // it.
  const FileId file = opens_.at(open_id).file;
  opens_.at(open_id).timeout_event =
      sim_.schedule_after(params_.bid_timeout, [this, open_id] {
        const auto it = opens_.find(open_id);
        if (it == opens_.end() || it->second.expected_bids > 0 || it->second.evaluated) return;
        ++counters_.bid_timeouts;
        fail_open(open_id, Status::unavailable("matchmaker unreachable"));
      });
  const net::NodeId mm_node = mm_.node_for(file);
  MetadataManager& shard = mm_.shard_for(file);
  net_.send(id_, mm_node, net::MessageKind::kResourceQuery,
            ResourceQueryMsg::estimated_size(), [this, &shard, mm_node, open_id, file] {
              const ResourceReplyMsg reply = shard.handle_resource_query(file);
              net_.send(mm_node, id_, net::MessageKind::kResourceReply,
                        reply.estimated_size(),
                        [this, open_id, file, holders = reply.holders] {
                          if (params_.holder_cache_ttl > SimTime::zero()) {
                            holder_cache_[file] = CachedHolders{
                                holders, sim_.now() + params_.holder_cache_ttl};
                          }
                          on_holders(open_id, holders);
                        });
            });
}

void DfsClient::on_holders(std::uint64_t open_id, const std::vector<net::NodeId>& holders) {
  const auto it = opens_.find(open_id);
  if (it == opens_.end()) return;
  sim_.cancel(it->second.timeout_event);  // exploration finished in time
  if (holders.empty()) {
    fail_open(open_id, Status::not_found("no replica registered for file " +
                                         std::to_string(it->second.file)));
    return;
  }
  send_cfps(open_id, holders);
}

void DfsClient::send_cfps(std::uint64_t open_id, const std::vector<net::NodeId>& targets) {
  auto& ctx = opens_.at(open_id);
  ctx.expected_bids = targets.size();
  ctx.bids.reserve(targets.size());
  ctx.timeout_event =
      sim_.schedule_after(params_.bid_timeout, [this, open_id] { on_bid_timeout(open_id); });

  CfpMsg cfp;
  cfp.open_id = open_id;
  cfp.file = ctx.file;
  cfp.required = ctx.required;

  for (const net::NodeId target : targets) {
    ResourceManager* rm = rm_by_node(target);
    assert(rm != nullptr && "MM returned an unknown RM");
    ++counters_.cfps_sent;
    net_.send(id_, target, net::MessageKind::kCfp, CfpMsg::estimated_size(),
              [this, rm, cfp] {
                if (!rm->is_online()) return;  // message lost at the dead host
                const BidMsg bid = rm->handle_cfp(cfp);
                net_.send(rm->node_id(), id_, net::MessageKind::kBid, BidMsg::estimated_size(),
                          [this, bid] { on_bid(bid.open_id, bid); });
              });
  }
}

void DfsClient::on_bid(std::uint64_t open_id, const BidMsg& bid) {
  const auto it = opens_.find(open_id);
  if (it == opens_.end() || it->second.evaluated) return;  // late bid: drop
  ++counters_.bids_received;
  it->second.bids.push_back(bid);
  if (it->second.bids.size() == it->second.expected_bids) {
    sim_.cancel(it->second.timeout_event);
    evaluate_bids(open_id);
  }
}

void DfsClient::on_bid_timeout(std::uint64_t open_id) {
  const auto it = opens_.find(open_id);
  if (it == opens_.end() || it->second.evaluated) return;
  ++counters_.bid_timeouts;
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "bid_timeout", "ecnp",
                        {obs::arg("file", static_cast<std::uint64_t>(it->second.file)),
                         obs::arg("bids", static_cast<std::uint64_t>(it->second.bids.size()))});
  }
  // Score whatever arrived; unreachable RMs count as refusals.
  evaluate_bids(open_id);
}

void DfsClient::evaluate_bids(std::uint64_t open_id) {
  auto& ctx = opens_.at(open_id);
  ctx.evaluated = true;

  if (ctx.bids.empty()) {
    fail_open(open_id, Status::unavailable("no bids received for file " +
                                           std::to_string(ctx.file) + " (holders unreachable)"));
    return;
  }

  // Candidates. Reads: RMs that actually hold the file (under plain CNP
  // some broadcast targets answer has_file = false). Write sessions: RMs
  // *without* a replica that can store the new one. Firm real-time
  // additionally requires the assured bandwidth.
  std::vector<BidMsg> candidates;
  candidates.reserve(ctx.bids.size());
  const double needed_bytes =
      static_cast<double>(directory_.get(ctx.file).size.count());
  for (const BidMsg& b : ctx.bids) {
    if (ctx.write_session) {
      if (b.has_file || b.free_disk_bytes < needed_bytes) continue;
    } else if (!b.has_file) {
      continue;
    }
    if (!core::admits(params_.mode, b.info, ctx.required)) continue;
    candidates.push_back(b);
  }

  if (candidates.empty()) {
    fail_open(open_id, Status::resource_exhausted(
                           "no RM can assure " + ctx.required.to_string() + " for file " +
                           std::to_string(ctx.file)));
    return;
  }

  counters_.negotiation_us_sum +=
      static_cast<std::uint64_t>((sim_.now() - ctx.started).as_micros());
  ++counters_.negotiations;

  // O(log n) winner selection through the tournament scratch tree —
  // bit-identical to the linear scan (core/selection_tree.hpp). The random
  // policy draws without scoring, so the scores stay empty there.
  score_scratch_.clear();
  if (!policy_.weights().is_random()) {
    score_scratch_.reserve(candidates.size());
    for (const BidMsg& b : candidates) score_scratch_.push_back(policy_.score(b.info));
  }
  const auto pick = policy_.choose_scored(candidates.size(), score_scratch_, rng_, select_scratch_);
  assert(pick.has_value());
  const net::NodeId winner = candidates[*pick].rm;
  ResourceManager* rm = rm_by_node(winner);
  assert(rm != nullptr);

  if (obs_ != nullptr) {
    // The negotiation span covers exploration + CFP fan-out + bid collection
    // up to the winner selection — the ECNP control-plane cost per access.
    obs_->trace.complete(obs_track_, "negotiate", "ecnp", ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                          obs::arg("bids", static_cast<std::uint64_t>(ctx.bids.size())),
                          obs::arg("candidates", static_cast<std::uint64_t>(candidates.size())),
                          obs::arg("winner", static_cast<std::uint64_t>(winner.value()))});
  }

  DataRequestMsg request;
  request.open_id = open_id;
  request.file = ctx.file;
  request.rate = ctx.required;
  request.firm = params_.mode == core::AllocationMode::kFirm;
  request.auto_complete = !ctx.explicit_session;
  request.write = ctx.write_session;
  request.tenant = params_.tenant;
  if (ctx.explicit_session) {
    sessions_.emplace(open_id, SessionInfo{winner, ctx.file, ctx.write_session});
  }

  // Data-phase deadline: if the request or its completion is lost (network
  // partition), the open must fail rather than hang. Whichever of the real
  // completion and the deadline fires first wins.
  auto settled = std::make_shared<bool>(false);
  const auto settle = [this, settled](std::uint64_t id, const DataCompleteMsg& m) {
    if (*settled) return;
    *settled = true;
    on_data_complete(id, m);
  };
  const SimTime expected = request.auto_complete
                               ? ctx.required.time_to_transfer(directory_.get(ctx.file).size)
                               : SimTime::zero();
  sim_.schedule_after(expected + params_.bid_timeout, [settle, request] {
    DataCompleteMsg timed_out;
    timed_out.open_id = request.open_id;
    timed_out.file = request.file;
    timed_out.accepted = false;
    settle(timed_out.open_id, timed_out);
  });

  net_.send(id_, winner, net::MessageKind::kDataRequest, DataRequestMsg::estimated_size(),
            [this, rm, request, settle] {
              if (!rm->is_online()) {
                // Connection refused: the RM died between bidding and the
                // data request. Report the allocation as rejected.
                DataCompleteMsg refused;
                refused.open_id = request.open_id;
                refused.file = request.file;
                refused.accepted = false;
                net_.send(rm->node_id(), id_, net::MessageKind::kDataComplete,
                          DataCompleteMsg::estimated_size(),
                          [settle, refused] { settle(refused.open_id, refused); });
                return;
              }
              rm->handle_data_request(id_, request, [settle, open_id = request.open_id](
                                                        const DataCompleteMsg& m) {
                settle(open_id, m);
              });
            });
}

void DfsClient::on_data_complete(std::uint64_t open_id, const DataCompleteMsg& msg) {
  const auto it = opens_.find(open_id);
  if (it == opens_.end()) return;

  if (!msg.accepted) {
    // Firm-mode RM-side admission rejected (bid raced with another open).
    sessions_.erase(open_id);
    fail_open(open_id, Status::resource_exhausted("RM-side admission rejected the allocation"));
    return;
  }

  OpenContext ctx = std::move(it->second);
  opens_.erase(it);
  if (obs_ != nullptr) {
    // For streams this span covers open through transfer completion; for
    // explicit sessions it ends at the successful open (the data phase is
    // paced by the caller and shows up as the RM-side session span).
    obs_->trace.complete(obs_track_, ctx.explicit_session ? "open" : "access", "flow",
                         ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                          obs::arg("rate_mbps", ctx.required.as_mbps())});
  }
  if (ctx.explicit_session) {
    if (ctx.opened) ctx.opened(Result<std::uint64_t>{open_id});
  } else {
    ++counters_.streams_completed;
    if (ctx.done) ctx.done(Status::ok());
  }
}

void DfsClient::fail_open(std::uint64_t open_id, const Status& status) {
  const auto it = opens_.find(open_id);
  assert(it != opens_.end());
  ++counters_.opens_failed;
  OpenContext ctx = std::move(it->second);
  opens_.erase(it);
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "open_failed", "ecnp",
                        {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                         obs::arg("reason", to_string(status.code()))});
  }
  // A failed open may mean the cached holder list went stale (replicas
  // moved); drop it so the next open re-explores.
  holder_cache_.erase(ctx.file);
  if (ctx.explicit_session) {
    if (ctx.opened) ctx.opened(Result<std::uint64_t>{status});
  } else if (ctx.done) {
    ctx.done(status);
  }
}

// --- erasure-coded read path -------------------------------------------------

void DfsClient::stream_striped(FileId file, Callback done) {
  if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, directory_.get(file).size);
  ++counters_.opens_attempted;
  const std::uint64_t ec_id = next_open_id_++;
  EcReadContext ctx;
  ctx.file = file;
  ctx.started = sim_.now();
  ctx.done = std::move(done);
  ec_reads_.emplace(ec_id, std::move(ctx));

  // Exploration deadline: an unreachable matchmaker fails the read.
  ec_reads_.at(ec_id).timeout_event =
      sim_.schedule_after(params_.bid_timeout, [this, ec_id] {
        const auto it = ec_reads_.find(ec_id);
        if (it == ec_reads_.end() || it->second.expected_bids > 0 || it->second.evaluated) return;
        ++counters_.bid_timeouts;
        fail_ec_read(ec_id, Status::unavailable("matchmaker unreachable"));
      });

  // Layout exploration: one query to the base file's owning MM shard covers
  // the whole stripe (shard keys hash to the base id on the ring).
  const net::NodeId mm_node = mm_.node_for(file);
  MetadataManager& shard = mm_.shard_for(file);
  net_.send(id_, mm_node, net::MessageKind::kStripeQuery, StripeQueryMsg::estimated_size(),
            [this, &shard, mm_node, ec_id, file] {
              LayoutReplyMsg reply = shard.handle_stripe_query(file);
              const Bytes size = reply.estimated_size();
              net_.send(mm_node, id_, net::MessageKind::kLayoutReply, size,
                        [this, ec_id, reply = std::move(reply)] { on_layout(ec_id, reply); });
            });
}

void DfsClient::on_layout(std::uint64_t ec_id, const LayoutReplyMsg& reply) {
  const auto it = ec_reads_.find(ec_id);
  if (it == ec_reads_.end()) return;
  sim_.cancel(it->second.timeout_event);

  if (reply.k == 0) {
    // Not striped: the reply already carries the whole-file holders, so the
    // read falls into the ordinary negotiation with no second round trip.
    EcReadContext ec = std::move(it->second);
    ec_reads_.erase(it);
    OpenContext ctx;
    ctx.file = ec.file;
    ctx.required = directory_.get(ec.file).bitrate;
    ctx.started = ec.started;
    ctx.done = std::move(ec.done);
    opens_.emplace(ec_id, std::move(ctx));
    if (reply.holders.empty()) {
      fail_open(ec_id, Status::not_found("no replica registered for file " +
                                         std::to_string(reply.file)));
      return;
    }
    send_cfps(ec_id, reply.holders);
    return;
  }

  EcReadContext& ctx = it->second;
  ctx.k = reply.k;
  ctx.m = reply.m;
  const FileMeta& meta = directory_.get(ctx.file);
  // Each of the k parallel sub-streams carries 1/k of the file's bitrate,
  // so a striped read occupies the same aggregate bandwidth as a whole-file
  // stream and finishes in the same occupation time.
  ctx.shard_rate = meta.bitrate * (1.0 / static_cast<double>(reply.k));
  const std::size_t n = static_cast<std::size_t>(reply.k) + reply.m;
  ctx.shard_bids.resize(n);

  std::size_t cfps = 0;
  for (std::size_t s = 0; s < n; ++s) cfps += reply.offsets[s + 1] - reply.offsets[s];
  if (cfps == 0) {
    fail_ec_read(ec_id, Status::unavailable("stripe " + std::to_string(ctx.file) +
                                            " has no registered shard holders"));
    return;
  }
  ctx.expected_bids = cfps;
  ctx.timeout_event = sim_.schedule_after(params_.bid_timeout, [this, ec_id] {
    const auto eit = ec_reads_.find(ec_id);
    if (eit == ec_reads_.end() || eit->second.evaluated) return;
    ++counters_.bid_timeouts;
    evaluate_ec_bids(ec_id);
  });

  // Negotiation: CFP every shard holder at the sub-stream rate. The shard
  // index rides in the delivery closures, so the wire messages are the
  // ordinary CfpMsg/BidMsg pair.
  for (std::size_t s = 0; s < n; ++s) {
    CfpMsg cfp;
    cfp.open_id = ec_id;
    cfp.file = storage::shard_key::pack(ctx.file, s, reply.k, reply.m);
    cfp.required = ctx.shard_rate;
    for (std::uint32_t h = reply.offsets[s]; h < reply.offsets[s + 1]; ++h) {
      const net::NodeId target = reply.holders[h];
      ResourceManager* rm = rm_by_node(target);
      assert(rm != nullptr && "MM returned an unknown RM");
      ++counters_.cfps_sent;
      net_.send(id_, target, net::MessageKind::kCfp, CfpMsg::estimated_size(),
                [this, rm, cfp, ec_id, s] {
                  if (!rm->is_online()) return;  // message lost at the dead host
                  const BidMsg bid = rm->handle_cfp(cfp);
                  net_.send(rm->node_id(), id_, net::MessageKind::kBid, BidMsg::estimated_size(),
                            [this, ec_id, s, bid] { on_ec_bid(ec_id, s, bid); });
                });
    }
  }
}

void DfsClient::on_ec_bid(std::uint64_t ec_id, std::size_t shard, const BidMsg& bid) {
  const auto it = ec_reads_.find(ec_id);
  if (it == ec_reads_.end() || it->second.evaluated) return;  // late bid: drop
  ++counters_.bids_received;
  ++it->second.received_bids;
  it->second.shard_bids[shard].push_back(bid);
  if (it->second.received_bids == it->second.expected_bids) {
    sim_.cancel(it->second.timeout_event);
    evaluate_ec_bids(ec_id);
  }
}

void DfsClient::evaluate_ec_bids(std::uint64_t ec_id) {
  auto& ctx = ec_reads_.at(ec_id);
  ctx.evaluated = true;

  // One winning bid per shard: the admissible holder with the best policy
  // score. Ties — and the random policy, which has no score — fall back to
  // the lowest node id so the pick is deterministic across event orderings.
  const std::size_t n = ctx.shard_bids.size();
  std::vector<const BidMsg*> winner(n, nullptr);
  for (std::size_t s = 0; s < n; ++s) {
    for (const BidMsg& b : ctx.shard_bids[s]) {
      if (!b.has_file) continue;
      if (!core::admits(params_.mode, b.info, ctx.shard_rate)) continue;
      if (winner[s] == nullptr) {
        winner[s] = &b;
      } else if (policy_.weights().is_random()) {
        if (b.rm < winner[s]->rm) winner[s] = &b;
      } else {
        const double cur = policy_.score(winner[s]->info);
        const double alt = policy_.score(b.info);
        if (alt > cur || (alt == cur && b.rm < winner[s]->rm)) winner[s] = &b;
      }
    }
  }

  // Greedy data-shards-first choice of k sources. Data shards stream their
  // stored bytes directly; every parity substitution stands in for an
  // unreachable data shard and marks the read degraded (the client decodes
  // instead of concatenating).
  const auto k = static_cast<std::size_t>(ctx.k);
  std::vector<std::pair<std::size_t, net::NodeId>> chosen;
  chosen.reserve(k);
  for (std::size_t s = 0; s < n && chosen.size() < k; ++s) {
    if (winner[s] != nullptr) chosen.emplace_back(s, winner[s]->rm);
  }
  if (chosen.size() < k) {
    fail_ec_read(ec_id,
                 Status::unavailable("stripe " + std::to_string(ctx.file) + " lost: only " +
                                     std::to_string(chosen.size()) + " of " + std::to_string(k) +
                                     " shards admissible"));
    return;
  }
  for (const auto& [s, rm] : chosen) {
    if (s >= k) {
      ctx.parity_used = true;
      break;
    }
  }

  counters_.negotiation_us_sum +=
      static_cast<std::uint64_t>((sim_.now() - ctx.started).as_micros());
  ++counters_.negotiations;

  if (obs_ != nullptr) {
    obs_->trace.complete(obs_track_, "ec_negotiate", "ecnp", ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                          obs::arg("k", static_cast<std::uint64_t>(ctx.k)),
                          obs::arg("parity_used", static_cast<std::uint64_t>(
                                                      ctx.parity_used ? 1 : 0))});
  }

  ctx.pending_shards = chosen.size();
  for (const auto& [s, rm] : chosen) dispatch_ec_shard(ec_id, s, rm);
}

void DfsClient::dispatch_ec_shard(std::uint64_t ec_id, std::size_t shard, net::NodeId target) {
  const auto it = ec_reads_.find(ec_id);
  if (it == ec_reads_.end()) return;
  const EcReadContext& ctx = it->second;
  ResourceManager* rm = rm_by_node(target);
  assert(rm != nullptr);

  DataRequestMsg request;
  request.open_id = ec_id;
  request.file = storage::shard_key::pack(ctx.file, shard, ctx.k, ctx.m);
  request.rate = ctx.shard_rate;
  request.firm = params_.mode == core::AllocationMode::kFirm;
  request.auto_complete = true;
  request.write = false;
  request.tenant = params_.tenant;

  // Sub-stream deadline: a holder that crashes mid-transfer (or a lost
  // completion) fails the read loudly instead of hanging it. The expected
  // time is the whole-file occupation time — a shard carries 1/k of the
  // bytes at 1/k of the rate.
  auto settled = std::make_shared<bool>(false);
  const auto settle = [this, settled, ec_id](const DataCompleteMsg& m) {
    if (*settled) return;
    *settled = true;
    on_ec_shard_complete(ec_id, m.accepted);
  };
  const SimTime expected = directory_.get(ctx.file).duration();
  sim_.schedule_after(expected + params_.bid_timeout, [settle, request] {
    DataCompleteMsg timed_out;
    timed_out.open_id = request.open_id;
    timed_out.file = request.file;
    timed_out.accepted = false;
    settle(timed_out);
  });

  net_.send(id_, target, net::MessageKind::kDataRequest, DataRequestMsg::estimated_size(),
            [this, rm, request, settle] {
              if (!rm->is_online()) {
                DataCompleteMsg refused;
                refused.open_id = request.open_id;
                refused.file = request.file;
                refused.accepted = false;
                net_.send(rm->node_id(), id_, net::MessageKind::kDataComplete,
                          DataCompleteMsg::estimated_size(),
                          [settle, refused] { settle(refused); });
                return;
              }
              rm->handle_data_request(id_, request,
                                      [settle](const DataCompleteMsg& m) { settle(m); });
            });
}

void DfsClient::on_ec_shard_complete(std::uint64_t ec_id, bool accepted) {
  const auto it = ec_reads_.find(ec_id);
  if (it == ec_reads_.end()) return;
  EcReadContext& ctx = it->second;
  if (!accepted) ctx.shard_failed = true;
  assert(ctx.pending_shards > 0);
  if (--ctx.pending_shards > 0) return;

  if (ctx.shard_failed) {
    fail_ec_read(ec_id, Status::unavailable("a shard sub-stream of stripe " +
                                            std::to_string(ctx.file) + " was rejected"));
    return;
  }
  EcReadContext done_ctx = std::move(it->second);
  ec_reads_.erase(it);
  ++counters_.streams_completed;
  ++counters_.ec_reads;
  if (done_ctx.parity_used) ++counters_.ec_degraded_reads;
  if (obs_ != nullptr) {
    obs_->trace.complete(obs_track_, "ec_access", "flow", done_ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(done_ctx.file)),
                          obs::arg("degraded", static_cast<std::uint64_t>(
                                                   done_ctx.parity_used ? 1 : 0))});
  }
  if (done_ctx.done) done_ctx.done(Status::ok());
}

void DfsClient::fail_ec_read(std::uint64_t ec_id, const Status& status) {
  const auto it = ec_reads_.find(ec_id);
  assert(it != ec_reads_.end());
  ++counters_.opens_failed;
  ++counters_.ec_failed_reads;
  EcReadContext ctx = std::move(it->second);
  ec_reads_.erase(it);
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "ec_read_failed", "ecnp",
                        {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                         obs::arg("reason", to_string(status.code()))});
  }
  if (ctx.done) ctx.done(status);
}

}  // namespace sqos::dfs
