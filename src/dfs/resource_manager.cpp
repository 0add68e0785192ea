#include "dfs/resource_manager.hpp"

#include <cassert>
#include <utility>

#include "core/admission.hpp"
#include "core/bid.hpp"
#include "core/replication_planner.hpp"
#include "dfs/replication_agent.hpp"
#include "obs/recorder.hpp"
#include "qos/qos_manager.hpp"
#include "util/logging.hpp"

namespace sqos::dfs {

ResourceManager::ResourceManager(net::NodeId id, Params params, storage::ThrottleGroup& group,
                                 sim::Simulator& simulator, net::Network& network,
                                 const FileDirectory& directory,
                                 const core::ReplicationConfig& replication)
    : id_{id},
      params_{std::move(params)},
      group_{group},
      sim_{simulator},
      net_{network},
      directory_{directory},
      replication_cfg_{replication},
      disk_{params_.disk_capacity},
      ledger_{group.cap(), simulator.now()},
      history_{params_.history},
      trigger_{replication},
      nominal_cap_{group.cap()} {}

void ResourceManager::throttle_disk(double factor) {
  assert(factor > 0.0 && factor <= 1.0);
  const Bandwidth cap = nominal_cap_ * factor;
  group_.set_cap(cap);
  ledger_.on_cap_change(sim_.now(), cap);
}

RegisterMsg ResourceManager::make_register_msg() const {
  RegisterMsg msg;
  msg.rm = id_;
  msg.dispatched_bandwidth = group_.cap();
  msg.disk_capacity = disk_.capacity();
  // Only durable replicas are advertised: in-flight write reservations and
  // incoming replication copies are not yet readable.
  for (const FileId f : disk_.file_keys()) {
    if (pending_writes_.contains(f) || pending_incoming_.contains(f)) continue;
    msg.stored_files.push_back(f);
  }
  return msg;
}

ResourceManager::ResolvedFile ResourceManager::resolve(FileId key) const {
  if (storage::shard_key::is_shard(key)) {
    const FileMeta& meta = directory_.get(storage::shard_key::base(key));
    return {storage::shard_bytes(meta.size, storage::shard_key::k_of(key)), meta.duration()};
  }
  const FileMeta& meta = directory_.get(key);
  return {meta.size, meta.duration()};
}

Status ResourceManager::place_replica(FileId file) {
  const ResolvedFile meta = resolve(file);
  const Status s = disk_.add(file, meta.size);
  if (!s.is_ok()) return s;
  occupancy_.add_file(meta.duration);
  stored_at_[file] = sim_.now();
  return Status::ok();
}

BidMsg ResourceManager::handle_cfp(const CfpMsg& msg) {
  ++counters_.cfps_answered;
  const ResolvedFile meta = resolve(msg.file);
  const SimTime now = sim_.now();
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "cfp", "ecnp",
                        {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                         obs::arg("required_mbps", msg.required.as_mbps())});
  }

  core::BidInputs in;
  in.b_rem = remaining();
  in.b_used = allocated();
  in.reference = history_.reference(now);
  in.now = now;
  in.b_req = msg.required;
  in.t_ocp = msg.required.time_to_transfer(meta.size);
  in.t_ocp_avg = occupancy_.average();

  BidMsg bid;
  bid.open_id = msg.open_id;
  bid.rm = id_;
  bid.has_file = disk_.contains(msg.file);
  bid.info = core::make_bid(in);
  bid.free_disk_bytes = static_cast<double>(disk_.free().count());
  return bid;
}

void ResourceManager::sync_ledger() {
  ledger_.on_allocation_change(sim_.now(), allocated());
  // Every allocation change passes through here, so this one counter line
  // yields the complete per-RM allocated-bandwidth series in the trace.
  if (obs_ != nullptr) obs_->trace.counter(obs_track_, "allocated_mbps", allocated().as_mbps());
}

bool ResourceManager::handle_data_request(net::NodeId client, const DataRequestMsg& msg,
                                          std::function<void(const DataCompleteMsg&)> deliver_complete) {
  ++counters_.data_requests;
  const ResolvedFile meta = resolve(msg.file);
  const SimTime now = sim_.now();
  // Tenant demand is NOT recorded here: the issuing client records it when
  // the access starts, so demand from failed negotiations (which never
  // produce a data request) still counts against the tenant's floor.

  const auto send_complete = [this, client](DataCompleteMsg m,
                                            std::function<void(const DataCompleteMsg&)> deliver) {
    net_.send(id_, client, net::MessageKind::kDataComplete, DataCompleteMsg::estimated_size(),
              [deliver = std::move(deliver), m] { deliver(m); });
  };

  // Firm real-time: the RM performs the final admission so its allocation
  // never exceeds the cap even when concurrent negotiations raced on the
  // same bid information. Writes additionally require disk space for the
  // incoming replica (reserved up front by an empty placeholder so racing
  // writes cannot over-commit the disk).
  const bool no_bandwidth = msg.firm && !test_skip_firm_admission_ && remaining() < msg.rate;
  const bool no_space =
      msg.write && (disk_.contains(msg.file) || disk_.free() < meta.size);
  if (no_bandwidth || no_space) {
    ++counters_.firm_rejects;
    if (obs_ != nullptr) {
      obs_->trace.instant(obs_track_, "reject", "ecnp",
                          {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                           obs::arg("reason", no_bandwidth ? "no_bandwidth" : "no_space")});
    }
    DataCompleteMsg reject;
    reject.open_id = msg.open_id;
    reject.file = msg.file;
    reject.accepted = false;
    send_complete(reject, std::move(deliver_complete));
    return false;
  }
  // Tenant token-bucket admission, after the firm/space check so a firm
  // reject never consumes tokens. A refused request is reported exactly like
  // a firm reject (accepted=false) — the client retries or fails upstream.
  if (qos_ != nullptr && !qos_->admit(msg.tenant, qos_index_, meta.size, now)) {
    ++counters_.qos_throttled;
    if (obs_ != nullptr) {
      obs_->trace.instant(obs_track_, "reject", "ecnp",
                          {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                           obs::arg("reason", "tenant_throttle")});
    }
    DataCompleteMsg reject;
    reject.open_id = msg.open_id;
    reject.file = msg.file;
    reject.accepted = false;
    send_complete(reject, std::move(deliver_complete));
    return false;
  }
  if (msg.write) {
    // Reserve the space now; the replica becomes visible (occupation, MM
    // commit by the client) only when the transfer completes. The pending
    // entry lets fail() roll a torn write back at crash time — before any
    // recovery re-registration could advertise it.
    const Status reserved = disk_.add(msg.file, meta.size);
    assert(reserved.is_ok());
    (void)reserved;
    pending_writes_.insert(msg.file);
  }

  // The request is now being served: it enters the two-queue historical
  // record (request arrival + accessed file size, §IV) and — for reads —
  // the per-file heat used by the "what to replicate" decision (§V). Shard
  // reads stay out of the heat map: the replication agent plans whole-file
  // copies only, and stripe redundancy is the rebalance agent's job.
  history_.record(now, meta.size);
  if (!msg.write && !storage::shard_key::is_shard(msg.file)) heat_.record_access(msg.file);
  last_access_[msg.file] = now;

  const storage::FlowId flow =
      group_.add_flow(msg.write ? storage::FlowKind::kWrite : storage::FlowKind::kRead, msg.file,
                      msg.rate, now, msg.tenant);
  sync_ledger();

  if (msg.auto_complete) {
    const SimTime duration = msg.rate.time_to_transfer(meta.size);
    sim_.schedule_after(duration, [this, flow, msg, client, send_complete, epoch = epoch_,
                                   started = now,
                                   deliver = std::move(deliver_complete)]() mutable {
      DataCompleteMsg done;
      done.open_id = msg.open_id;
      done.file = msg.file;
      if (epoch != epoch_) {
        // The RM crashed while the transfer was in flight: the allocation
        // died with it, and fail() already rolled back any torn write.
        done.accepted = false;
      } else {
        group_.remove_flow(flow);
        sync_ledger();
        const ResolvedFile m = resolve(msg.file);
        if (msg.write) {
          // The replica is now durable; it becomes visible to negotiation
          // once the client commits it to the MM.
          occupancy_.add_file(m.duration);
          stored_at_[msg.file] = sim_.now();
          pending_writes_.erase(msg.file);
          ++counters_.writes_completed;
        } else {
          ++counters_.streams_completed;
        }
        done.accepted = true;
        if (qos_ != nullptr) {
          // Full file delivered; latency = admission-to-completion time.
          qos_->on_complete(msg.tenant, m.size, sim_.now() - started);
        }
        if (obs_ != nullptr) {
          obs_->trace.complete(obs_track_, "transfer", "flow", started,
                               {obs::arg("file", static_cast<std::uint64_t>(msg.file)),
                                obs::arg("kind", msg.write ? "write" : "read"),
                                obs::arg("rate_mbps", msg.rate.as_mbps())});
        }
      }
      send_complete(done, std::move(deliver));
    });
  } else {
    sessions_.emplace(session_key(client, msg.open_id), Session{flow, msg.file, msg.write});
    DataCompleteMsg ack;
    ack.open_id = msg.open_id;
    ack.file = msg.file;
    ack.accepted = true;
    send_complete(ack, std::move(deliver_complete));
  }

  // Serving this request may have pushed remaining bandwidth below B_TH —
  // the paper's replication trigger point (§V "when to replicate").
  if (agent_ != nullptr) agent_->maybe_trigger(*this);
  return true;
}

void ResourceManager::handle_release(net::NodeId client, const ReleaseMsg& msg) {
  ++counters_.releases;
  const auto it = sessions_.find(session_key(client, msg.open_id));
  if (it == sessions_.end()) {
    Log::warn("%s: release of unknown session %llu", params_.name.c_str(),
              static_cast<unsigned long long>(msg.open_id));
    return;
  }
  const Session session = it->second;
  // Look the flow up before removal: its start time bounds the trace span
  // and the tenant delivery credit below.
  if (const storage::Flow* flow = group_.flows().find(session.flow); flow != nullptr) {
    if (obs_ != nullptr) {
      obs_->trace.complete(obs_track_, "session", "flow", flow->started,
                           {obs::arg("file", static_cast<std::uint64_t>(session.file)),
                            obs::arg("kind", storage::to_string(flow->kind)),
                            obs::arg("committed", msg.commit ? "true" : "false")});
    }
    if (qos_ != nullptr) {
      // An explicit session delivers what the allocation moved while it was
      // open, capped at the file size (a session held past the transfer end
      // doesn't mint extra bytes).
      const SimTime held = sim_.now() - flow->started;
      const Bytes size = resolve(session.file).size;
      const auto moved = static_cast<std::int64_t>(flow->rate.bytes_over(held));
      qos_->on_complete(flow->tenant, moved < size.count() ? Bytes::of(moved) : size, held);
    }
  }
  group_.remove_flow(session.flow);
  sessions_.erase(it);
  sync_ledger();

  if (session.write) {
    if (msg.commit) {
      // The explicit write finished: the replica becomes durable.
      occupancy_.add_file(resolve(session.file).duration);
      stored_at_[session.file] = sim_.now();
      pending_writes_.erase(session.file);
      ++counters_.writes_completed;
    } else {
      // Abandoned write: roll the reservation back.
      pending_writes_.erase(session.file);
      if (disk_.contains(session.file)) (void)disk_.remove(session.file);
    }
  }
}

ReplicationResponseMsg ResourceManager::handle_replication_request(
    const ReplicationRequestMsg& msg) {
  ++counters_.replication_requests;
  ReplicationResponseMsg response;
  response.transfer_id = msg.transfer_id;
  response.destination = id_;

  const bool holds_or_pending = disk_.contains(msg.file) || pending_incoming_.contains(msg.file);
  const auto verdict = core::destination_verdict(replication_cfg_, holds_or_pending, remaining(),
                                                 cap(), msg.file_bandwidth);
  const bool has_space = disk_.free() >= msg.size;
  response.accepted = verdict == core::DestinationVerdict::kAccept && has_space;
  if (response.accepted) {
    ++counters_.replication_accepts;
    pending_incoming_.insert(msg.file);
    trigger_.begin_destination();
  } else {
    ++counters_.replication_rejects;
  }
  return response;
}

storage::FlowId ResourceManager::begin_replication_out(FileId file, Bandwidth speed) {
  return replication_lane_.add(storage::FlowKind::kReplicationOut, file, speed, sim_.now());
}

void ResourceManager::end_replication_out(storage::FlowId flow) {
  replication_lane_.remove(flow);
}

storage::FlowId ResourceManager::begin_replication_in(FileId file, Bandwidth speed) {
  return replication_lane_.add(storage::FlowKind::kReplicationIn, file, speed, sim_.now());
}

Status ResourceManager::finish_replication_in(storage::FlowId flow, FileId file) {
  replication_lane_.remove(flow);
  pending_incoming_.erase(file);
  trigger_.end_destination();

  const ResolvedFile meta = resolve(file);
  const Status s = disk_.add(file, meta.size);
  if (s.is_ok()) {
    occupancy_.add_file(meta.duration);
    stored_at_[file] = sim_.now();
    ++counters_.replicas_received;
    counters_.replication_bytes_in += static_cast<std::uint64_t>(meta.size.count());
  }
  return s;
}

void ResourceManager::abort_replication_in(storage::FlowId flow, FileId file) {
  replication_lane_.remove(flow);
  pending_incoming_.erase(file);
  trigger_.end_destination();
}

void ResourceManager::cancel_pending_replication(FileId file) {
  pending_incoming_.erase(file);
  trigger_.end_destination();
}

Status ResourceManager::delete_replica(FileId file) {
  const Status s = disk_.remove(file);
  if (!s.is_ok()) return s;
  occupancy_.remove_file(resolve(file).duration);
  heat_.forget(file);
  last_access_.erase(file);
  stored_at_.erase(file);
  ++counters_.replicas_deleted;
  return Status::ok();
}

void ResourceManager::fail() {
  online_ = false;
  ++epoch_;
  if (obs_ != nullptr) {
    obs_->trace.instant(obs_track_, "crash", "fault",
                        {obs::arg("sessions", static_cast<std::uint64_t>(sessions_.size())),
                         obs::arg("flows", static_cast<std::uint64_t>(group_.flows().size()))});
  }
  // Volatile state dies with the host. Disk contents (replicas), and the
  // occupation statistics derived from them, survive the reboot — except
  // torn writes, whose reserved space is rolled back like a journal replay
  // so a recovery re-registration can never advertise a half-written file.
  // sqos-lint: allow(no-unordered-iteration): per-file rollback; removals
  // commute and nothing observable (events, messages) depends on the order.
  for (const FileId f : pending_writes_) {
    if (disk_.contains(f)) (void)disk_.remove(f);
  }
  pending_writes_.clear();
  group_.drain_flows();
  sync_ledger();
  replication_lane_.drain();
  sessions_.clear();
  pending_incoming_.clear();
  last_access_.clear();
  history_ = core::TwoQueueHistory{params_.history};
  heat_ = core::FileHeat{};
  trigger_ = core::ReplicationTrigger{replication_cfg_};
}

void ResourceManager::recover() {
  online_ = true;
  if (obs_ != nullptr) obs_->trace.instant(obs_track_, "recover", "fault");
}

SimTime ResourceManager::last_access_of(FileId file) const {
  const auto it = last_access_.find(file);
  return it == last_access_.end() ? SimTime::zero() : it->second;
}

SimTime ResourceManager::stored_at_of(FileId file) const {
  const auto it = stored_at_.find(file);
  return it == stored_at_.end() ? SimTime::zero() : it->second;
}

bool ResourceManager::has_active_flow_for(FileId file) const {
  for (const storage::Flow& f : group_.flows().active()) {
    if (f.file == file) return true;
  }
  return false;
}

}  // namespace sqos::dfs
