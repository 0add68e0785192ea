#include "dfs/dfs_client.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/recorder.hpp"
#include "qos/qos_manager.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

namespace {

/// Bid intake hook for flows that keep nothing beside the bid itself.
constexpr auto kKeepBidOnly = [](const auto&) {};

/// Remove the entry at `it` from its table and return its value.
template <typename V>
V take(util::SmallU64Map<V>& table, typename util::SmallU64Map<V>::iterator it) {
  assert(it != table.end());
  V value = std::move(it->second);
  table.erase(it);
  return value;
}

}  // namespace

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

// --- the ECNP round ----------------------------------------------------------
//
// Every access is one round of the Extended Contract Net Protocol (§III.B):
// explore (ask the MM which RMs qualify), negotiate (CFP every candidate and
// collect bids until the last one or the deadline), then request data from
// the chosen RM(s). These legs are the round's mechanics, shared by reads,
// explicit sessions, writes and striped reads. Each flow keeps its own MM
// query, candidate ranking and completion handling, and passes them in.

template <typename Ctx, typename Fail>
void DfsClient::arm_exploration(util::SmallU64Map<Ctx>& table, std::uint64_t id, Fail fail) {
  // An unreachable matchmaker (network partition) must fail the access, not
  // hang it.
  table.at(id).timeout_event = sim_.schedule_after(params_.bid_timeout, [this, &table, id, fail] {
    const auto it = table.find(id);
    if (it == table.end() || it->second.expected_bids > 0 || it->second.evaluated) return;
    ++counters_.bid_timeouts;
    fail(id, Status::unavailable("matchmaker unreachable"));
  });
}

template <typename Ctx, typename Evaluate>
void DfsClient::arm_bid_deadline(util::SmallU64Map<Ctx>& table, std::uint64_t id,
                                 std::size_t expected, Evaluate evaluate) {
  Ctx& round = table.at(id);
  round.expected_bids = expected;
  // Bids missing at the deadline count as refusals: an RM that crashed since
  // the MM listed it must not hang the round.
  round.timeout_event = sim_.schedule_after(params_.bid_timeout, [this, &table, id, evaluate] {
    const auto it = table.find(id);
    if (it == table.end() || it->second.evaluated) return;
    ++counters_.bid_timeouts;
    evaluate(id);
  });
}

template <typename OnBid>
void DfsClient::send_cfp(net::NodeId target, const CfpMsg& cfp, OnBid on_bid) {
  ResourceManager* rm = rm_by_node(target);
  assert(rm != nullptr && "MM returned an unknown RM");
  ++counters_.cfps_sent;
  net_.send(id_, target, net::MessageKind::kCfp, CfpMsg::estimated_size(),
            [this, rm, cfp, on_bid] {
              if (!rm->is_online()) return;  // message lost at the dead host
              const BidMsg bid = rm->handle_cfp(cfp);
              net_.send(rm->node_id(), id_, net::MessageKind::kBid, BidMsg::estimated_size(),
                        [on_bid, bid] { on_bid(bid); });
            });
}

template <typename Ctx, typename Keep, typename Evaluate>
void DfsClient::file_bid(util::SmallU64Map<Ctx>& table, const BidMsg& bid, Keep keep,
                         Evaluate evaluate) {
  const auto it = table.find(bid.open_id);
  if (it == table.end() || it->second.evaluated) return;  // late bid: drop
  ++counters_.bids_received;
  Ctx& round = it->second;
  round.bids.push_back(bid);
  keep(round);
  if (round.bids.size() == round.expected_bids) {
    sim_.cancel(round.timeout_event);
    evaluate(bid.open_id);
  }
}

template <typename OnComplete>
void DfsClient::send_data_request(net::NodeId target, DataRequestMsg request, SimTime expected,
                                  OnComplete on_complete) {
  ResourceManager* rm = rm_by_node(target);
  assert(rm != nullptr);
  request.firm = params_.mode == core::AllocationMode::kFirm;
  request.tenant = params_.tenant;

  // Whichever of the RM's completion, its refusal and the deadline comes
  // first settles the request; the others find it settled.
  auto settled = std::make_shared<bool>(false);
  const auto settle = [settled, on_complete](const DataCompleteMsg& m) {
    if (*settled) return;
    *settled = true;
    on_complete(m);
  };
  // Data-phase deadline: a request or completion lost to a partition counts
  // as a rejection instead of hanging the access.
  sim_.schedule_after(expected + params_.bid_timeout,
                      [settle, rejected = DataCompleteMsg{request.open_id, request.file, false}] {
                        settle(rejected);
                      });
  net_.send(id_, target, net::MessageKind::kDataRequest, DataRequestMsg::estimated_size(),
            [this, rm, request, settle] {
              if (!rm->is_online()) {
                // Connection refused: the RM died between bidding and the
                // data request. Report the allocation as rejected.
                net_.send(rm->node_id(), id_, net::MessageKind::kDataComplete,
                          DataCompleteMsg::estimated_size(),
                          [settle, refused = DataCompleteMsg{request.open_id, request.file,
                                                             false}] { settle(refused); });
                return;
              }
              rm->handle_data_request(id_, request, settle);
            });
}

void DfsClient::stream_file(FileId file, Callback done) {
  if (params_.layout.is_ec()) {
    stream_striped(file, std::move(done));
    return;
  }
  OpenContext ctx;
  ctx.done = std::move(done);
  start_negotiation(file, std::move(ctx));
}

void DfsClient::open(FileId file, std::function<void(Result<std::uint64_t>)> opened) {
  OpenContext ctx;
  ctx.explicit_session = true;
  ctx.opened = std::move(opened);
  start_negotiation(file, std::move(ctx));
}

void DfsClient::open_write(FileId file, std::function<void(Result<std::uint64_t>)> opened) {
  OpenContext ctx;
  ctx.explicit_session = true;
  ctx.write_session = true;
  ctx.opened = std::move(opened);
  start_negotiation(file, std::move(ctx));
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
  arm_exploration(writes_, write_id,
                  [this](std::uint64_t id, const Status& s) { fail_write(id, s); });

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
    fail_write(write_id, Status::unavailable("no RM available for the write"));
    return;
  }

  arm_bid_deadline(writes_, write_id, candidates,
                   [this](std::uint64_t id) { evaluate_write_bids(id); });
  const WriteContext& ctx = it->second;
  const CfpMsg cfp{write_id, ctx.file, ctx.required};
  for (std::size_t i = 0; i < candidates; ++i) {
    send_cfp(reply.non_holder(i), cfp, [this](const BidMsg& bid) {
      file_bid(writes_, bid, kKeepBidOnly, [this](std::uint64_t id) { evaluate_write_bids(id); });
    });
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
    fail_write(write_id, Status::resource_exhausted("no RM can accept the written replica"));
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
  for (std::size_t i = 0; i < k; ++i) dispatch_write(write_id, ctx.ranked[i].rm);
}

void DfsClient::dispatch_write(std::uint64_t write_id, net::NodeId target) {
  const WriteContext& ctx = writes_.at(write_id);
  // A lost request or completion counts as a rejection, which triggers the
  // normal failover to the next-ranked candidate.
  send_data_request(target,
                    {.open_id = write_id,
                     .file = ctx.file,
                     .rate = ctx.required,
                     .auto_complete = true,
                     .write = true},
                    ctx.required.time_to_transfer(ctx.size),
                    [this, target](const DataCompleteMsg& m) { on_write_complete(target, m); });
}

void DfsClient::on_write_complete(net::NodeId rm, const DataCompleteMsg& msg) {
  const std::uint64_t write_id = msg.open_id;
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
  WriteContext ctx = take(writes_, writes_.find(write_id));
  if (obs_ != nullptr) {
    obs_->trace.complete(obs_track_, "write", "flow", ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                          obs::arg("replicas", static_cast<std::uint64_t>(ctx.succeeded)),
                          obs::arg("bytes", static_cast<std::uint64_t>(ctx.size.count()))});
  }
  if (ctx.succeeded == 0) ++counters_.writes_failed;
  if (ctx.done) {
    ctx.done(ctx.succeeded == 0
                 ? Status::resource_exhausted("every write replica was rejected")
                 : Status::ok());
  }
}

void DfsClient::fail_write(std::uint64_t write_id, const Status& status) {
  ++counters_.writes_failed;
  WriteContext ctx = take(writes_, writes_.find(write_id));
  if (ctx.done) ctx.done(status);
}

void DfsClient::release(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    Log::warn("%s: release of unknown session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(session));
    return;
  }
  end_session(it, !it->second.write);  // a plain release abandons a write session
}

void DfsClient::release_write(std::uint64_t session, bool commit) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.write) {
    Log::warn("%s: release_write of unknown write session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(session));
    return;
  }
  end_session(it, commit);
}

void DfsClient::end_session(util::SmallU64Map<SessionInfo>::iterator it, bool commit) {
  const std::uint64_t session = it->first;
  PendingRelease pending;
  pending.info = take(sessions_, it);
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
  ask_holders(file, [reply = std::move(reply)](FileId, const std::vector<net::NodeId>& holders) {
    reply(holders);
  });
}

template <typename OnReply>
void DfsClient::ask_holders(FileId file, OnReply on_reply) {
  // Per-file routing: the query goes to the shard owning this file on the
  // consistent-hash ring (with one shard this is the paper's single MM).
  const net::NodeId mm_node = mm_.node_for(file);
  MetadataManager& shard = mm_.shard_for(file);
  net_.send(id_, mm_node, net::MessageKind::kResourceQuery, ResourceQueryMsg::estimated_size(),
            [this, &shard, mm_node, file, on_reply] {
              const ResourceReplyMsg reply = shard.handle_resource_query(file);
              net_.send(mm_node, id_, net::MessageKind::kResourceReply, reply.estimated_size(),
                        [on_reply, file, holders = reply.holders] { on_reply(file, holders); });
            });
}

void DfsClient::start_negotiation(FileId file, OpenContext ctx) {
  if (params_.qos != nullptr) params_.qos->on_request(params_.tenant, directory_.get(file).size);
  ++counters_.opens_attempted;
  const std::uint64_t open_id = next_open_id_++;
  ctx.file = file;
  ctx.required = directory_.get(file).bitrate;
  ctx.started = sim_.now();
  // Plain CNP has no matchmaker: broadcast the CFP to every known RM. Write
  // sessions broadcast under ECNP too: the MM's holder query would return
  // nothing for a fresh file, while every RM is a placement candidate.
  const bool broadcast = params_.negotiation == NegotiationModel::kCnp || ctx.write_session;
  opens_.emplace(open_id, std::move(ctx));
  if (broadcast) {
    send_cfps(open_id, rm_index_->nodes());
    return;
  }
  // Holder cache: a repeat open of a recently explored file skips the MM
  // round trip entirely.
  if (params_.holder_cache_ttl > SimTime::zero()) {
    const auto hit = holder_cache_.find(file);
    if (hit != holder_cache_.end() && hit->second.expires > sim_.now()) {
      ++counters_.holder_cache_hits;
      on_holders(open_id, hit->second.holders);
      return;
    }
    ++counters_.holder_cache_misses;
  }

  // ECNP resource-exploration phase: ask the file's MM shard for the
  // eligible RMs first.
  arm_exploration(opens_, open_id, [this](std::uint64_t id, const Status& s) { fail_open(id, s); });
  ask_holders(file, [this, open_id](FileId explored, const std::vector<net::NodeId>& holders) {
    if (params_.holder_cache_ttl > SimTime::zero()) {
      holder_cache_[explored] = CachedHolders{holders, sim_.now() + params_.holder_cache_ttl};
    }
    on_holders(open_id, holders);
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
  OpenContext& ctx = opens_.at(open_id);
  ctx.bids.reserve(targets.size());
  arm_bid_deadline(opens_, open_id, targets.size(), [this](std::uint64_t id) {
    if (obs_ != nullptr) {
      const OpenContext& timed_out = opens_.at(id);
      obs_->trace.instant(obs_track_, "bid_timeout", "ecnp",
                          {obs::arg("file", static_cast<std::uint64_t>(timed_out.file)),
                           obs::arg("bids", static_cast<std::uint64_t>(timed_out.bids.size()))});
    }
    // Score whatever arrived; unreachable RMs count as refusals.
    evaluate_bids(id);
  });
  const CfpMsg cfp{open_id, ctx.file, ctx.required};
  for (const net::NodeId target : targets) {
    send_cfp(target, cfp, [this](const BidMsg& bid) {
      file_bid(opens_, bid, kKeepBidOnly, [this](std::uint64_t id) { evaluate_bids(id); });
    });
  }
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

  if (obs_ != nullptr) {
    // The negotiation span covers exploration + CFP fan-out + bid collection
    // up to the winner selection — the ECNP control-plane cost per access.
    obs_->trace.complete(obs_track_, "negotiate", "ecnp", ctx.started,
                         {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                          obs::arg("bids", static_cast<std::uint64_t>(ctx.bids.size())),
                          obs::arg("candidates", static_cast<std::uint64_t>(candidates.size())),
                          obs::arg("winner", static_cast<std::uint64_t>(winner.value()))});
  }

  if (ctx.explicit_session) {
    sessions_.emplace(open_id, SessionInfo{winner, ctx.file, ctx.write_session});
  }
  // A stream is expected to finish after its transfer time; an explicit
  // session only waits for the RM's admission verdict.
  const SimTime expected = ctx.explicit_session
                               ? SimTime::zero()
                               : ctx.required.time_to_transfer(directory_.get(ctx.file).size);
  send_data_request(winner,
                    {.open_id = open_id,
                     .file = ctx.file,
                     .rate = ctx.required,
                     .auto_complete = !ctx.explicit_session,
                     .write = ctx.write_session},
                    expected, [this](const DataCompleteMsg& m) { on_data_complete(m); });
}

void DfsClient::on_data_complete(const DataCompleteMsg& msg) {
  const auto it = opens_.find(msg.open_id);
  if (it == opens_.end()) return;

  if (!msg.accepted) {
    // Firm-mode RM-side admission rejected (bid raced with another open).
    sessions_.erase(msg.open_id);
    fail_open(msg.open_id, Status::resource_exhausted("RM-side admission rejected the allocation"));
    return;
  }

  OpenContext ctx = take(opens_, it);
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
    if (ctx.opened) ctx.opened(Result<std::uint64_t>{msg.open_id});
  } else {
    ++counters_.streams_completed;
    if (ctx.done) ctx.done(Status::ok());
  }
}

void DfsClient::fail_open(std::uint64_t open_id, const Status& status) {
  ++counters_.opens_failed;
  OpenContext ctx = take(opens_, opens_.find(open_id));
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
  arm_exploration(ec_reads_, ec_id,
                  [this](std::uint64_t id, const Status& s) { fail_ec_read(id, s); });

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
    EcReadContext ec = take(ec_reads_, it);
    OpenContext ctx;
    ctx.file = ec.file;
    ctx.required = directory_.get(ec.file).bitrate;
    ctx.started = ec.started;
    ctx.done = std::move(ec.done);
    opens_.emplace(ec_id, std::move(ctx));
    on_holders(ec_id, reply.holders);
    return;
  }

  EcReadContext& ctx = it->second;
  ctx.k = reply.k;
  ctx.m = reply.m;
  // Each of the k parallel sub-streams carries 1/k of the file's bitrate,
  // so a striped read occupies the same aggregate bandwidth as a whole-file
  // stream and finishes in the same occupation time.
  ctx.required = directory_.get(ctx.file).bitrate * (1.0 / static_cast<double>(reply.k));
  if (reply.holders.empty()) {
    fail_ec_read(ec_id, Status::unavailable("stripe " + std::to_string(ctx.file) +
                                            " has no registered shard holders"));
    return;
  }
  arm_bid_deadline(ec_reads_, ec_id, reply.holders.size(),
                   [this](std::uint64_t id) { evaluate_ec_bids(id); });

  // Negotiation: CFP every shard holder at the sub-stream rate. The shard
  // index rides in the bid continuation, so the wire messages are the
  // ordinary CfpMsg/BidMsg pair.
  const std::size_t n = static_cast<std::size_t>(reply.k) + reply.m;
  for (std::size_t s = 0; s < n; ++s) {
    const CfpMsg cfp{ec_id, storage::shard_key::pack(ctx.file, s, reply.k, reply.m),
                     ctx.required};
    for (std::uint32_t h = reply.offsets[s]; h < reply.offsets[s + 1]; ++h) {
      send_cfp(reply.holders[h], cfp, [this, s](const BidMsg& bid) {
        file_bid(
            ec_reads_, bid,
            [s](EcReadContext& round) { round.bid_shard.push_back(static_cast<std::uint8_t>(s)); },
            [this](std::uint64_t id) { evaluate_ec_bids(id); });
      });
    }
  }
}

void DfsClient::evaluate_ec_bids(std::uint64_t ec_id) {
  auto& ctx = ec_reads_.at(ec_id);
  ctx.evaluated = true;

  // One winning bid per shard: the admissible holder with the best policy
  // score. Ties — and the random policy, which has no score — fall back to
  // the lowest node id so the pick is deterministic across event orderings.
  // One pass in arrival order visits each shard's bids in arrival order.
  const std::size_t n = static_cast<std::size_t>(ctx.k) + ctx.m;
  std::vector<const BidMsg*> winner(n, nullptr);
  for (std::size_t i = 0; i < ctx.bids.size(); ++i) {
    const BidMsg& b = ctx.bids[i];
    const BidMsg*& best = winner[ctx.bid_shard[i]];
    if (!b.has_file) continue;
    if (!core::admits(params_.mode, b.info, ctx.required)) continue;
    if (best == nullptr) {
      best = &b;
    } else if (policy_.weights().is_random()) {
      if (b.rm < best->rm) best = &b;
    } else {
      const double cur = policy_.score(best->info);
      const double alt = policy_.score(b.info);
      if (alt > cur || (alt == cur && b.rm < best->rm)) best = &b;
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
  ctx.parity_used = chosen.back().first >= k;

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

  // Sub-stream deadline: the expected time is the whole-file occupation
  // time — a shard carries 1/k of the bytes at 1/k of the rate.
  const SimTime expected = directory_.get(ctx.file).duration();
  ctx.pending_shards = chosen.size();
  for (const auto& [s, rm] : chosen) {
    send_data_request(rm,
                      {.open_id = ec_id,
                       .file = storage::shard_key::pack(ctx.file, s, ctx.k, ctx.m),
                       .rate = ctx.required,
                       .auto_complete = true},
                      expected, [this](const DataCompleteMsg& m) {
                        on_ec_shard_complete(m.open_id, m.accepted);
                      });
  }
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
  EcReadContext done_ctx = take(ec_reads_, it);
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
  ++counters_.opens_failed;
  ++counters_.ec_failed_reads;
  EcReadContext ctx = take(ec_reads_, ec_reads_.find(ec_id));
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "ec_read_failed", "ecnp",
                        {obs::arg("file", static_cast<std::uint64_t>(ctx.file)),
                         obs::arg("reason", to_string(status.code()))});
  }
  if (ctx.done) ctx.done(status);
}

}  // namespace sqos::dfs
