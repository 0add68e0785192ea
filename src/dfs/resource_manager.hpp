// Resource Manager — the ECNP Storage Provider (§III.A).
//
// One RM manages one VM's throttled slice of a physical disk. It registers
// its resources with the MM, answers every CFP with a bid built from its
// live measurements (remaining bandwidth, two-queue history trend and
// occupation bias), serves data transfers as bandwidth flows, and acts as
// source/destination endpoint of dynamic replication.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/file_heat.hpp"
#include "core/history_window.hpp"
#include "core/occupation_tracker.hpp"
#include "core/replication_config.hpp"
#include "core/replication_trigger.hpp"
#include "dfs/ecnp_messages.hpp"
#include "dfs/file_types.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/bandwidth_ledger.hpp"
#include "storage/blkio_throttle.hpp"
#include "storage/disk_store.hpp"
#include "storage/stripe_layout.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sqos::obs {
struct Recorder;
}

namespace sqos::qos {
class QosManager;
}

namespace sqos::dfs {

class ReplicationAgent;

class ResourceManager {
 public:
  struct Params {
    std::string name;                 // "RM1" .. "RM16"
    Bytes disk_capacity = Bytes::gib(16.0);
    core::HistoryParams history;
  };

  ResourceManager(net::NodeId id, Params params, storage::ThrottleGroup& group,
                  sim::Simulator& simulator, net::Network& network,
                  const FileDirectory& directory, const core::ReplicationConfig& replication);

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // --- identity & capacity ---------------------------------------------------

  [[nodiscard]] net::NodeId node_id() const { return id_; }

  [[nodiscard]] bool is_online() const { return online_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] Bandwidth cap() const { return group_.cap(); }
  [[nodiscard]] Bandwidth allocated() const { return group_.allocated(); }
  [[nodiscard]] Bandwidth remaining() const { return group_.remaining(); }

  // --- registration & bootstrap ----------------------------------------------

  /// The registration message sent to the MM at start-up.
  [[nodiscard]] RegisterMsg make_register_msg() const;

  /// Place a replica during initial static placement (no protocol traffic).
  [[nodiscard]] Status place_replica(FileId file);

  [[nodiscard]] bool has_replica(FileId file) const { return disk_.contains(file); }
  [[nodiscard]] std::size_t stored_file_count() const { return disk_.file_count(); }
  [[nodiscard]] const storage::DiskStore& disk() const { return disk_; }

  // --- CFP / data-communication handlers --------------------------------------

  /// Answer a CFP with a bid. In this ECNP variant the RM always responds;
  /// has_file is false when it holds no replica (plain-CNP broadcast case).
  [[nodiscard]] BidMsg handle_cfp(const CfpMsg& msg);

  /// Start the data-communication phase. Returns false when firm-mode
  /// admission rejects (allocation would exceed the cap); the caller-provided
  /// `deliver_complete` is sent over the network either immediately (reject,
  /// or explicit-session ack) or when the streamed transfer finishes.
  bool handle_data_request(net::NodeId client, const DataRequestMsg& msg,
                           std::function<void(const DataCompleteMsg&)> deliver_complete);

  /// End an explicit (VFS) session.
  void handle_release(net::NodeId client, const ReleaseMsg& msg);

  // --- replication endpoints ---------------------------------------------------

  /// Destination-side admission (§V): applies the paper's three rejection
  /// rules plus disk-capacity and pending-transfer checks.
  [[nodiscard]] ReplicationResponseMsg handle_replication_request(const ReplicationRequestMsg& msg);

  /// Source side: begin shipping one copy. Replication transfers run on the
  /// RM's reserved replication lane (B_REV, §V) — a bandwidth budget outside
  /// the stream-allocation group, so migration traffic never competes with
  /// assured QoS flows (the paper's blkio isolation applied to replication).
  [[nodiscard]] storage::FlowId begin_replication_out(FileId file, Bandwidth speed);
  void end_replication_out(storage::FlowId flow);

  /// Destination side: the incoming copy's flow (admission already accepted).
  [[nodiscard]] storage::FlowId begin_replication_in(FileId file, Bandwidth speed);

  /// Destination side: copy landed — store the replica, clear pending state.
  [[nodiscard]] Status finish_replication_in(storage::FlowId flow, FileId file);

  /// Destination side: the source aborted an in-flight copy; remove the flow
  /// and roll back pending state.
  void abort_replication_in(storage::FlowId flow, FileId file);

  /// Destination side: the source aborted before the copy started (accepted
  /// request whose transfer never began); roll back pending state only.
  void cancel_pending_replication(FileId file);

  /// Source side: over-bound self-delete (§V) — remove own replica.
  [[nodiscard]] Status delete_replica(FileId file);

  // --- QoS state ---------------------------------------------------------------

  [[nodiscard]] core::ReplicationTrigger& trigger() { return trigger_; }
  [[nodiscard]] const core::ReplicationTrigger& trigger() const { return trigger_; }
  [[nodiscard]] core::FileHeat& heat() { return heat_; }
  [[nodiscard]] const core::FileHeat& heat() const { return heat_; }
  [[nodiscard]] const core::OccupationTracker& occupation() const { return occupancy_; }
  [[nodiscard]] storage::BandwidthLedger& ledger() { return ledger_; }
  [[nodiscard]] const storage::BandwidthLedger& ledger() const { return ledger_; }
  [[nodiscard]] const storage::ThrottleGroup& throttle_group() const { return group_; }

  /// Bandwidth currently moving on the reserved replication lane.
  [[nodiscard]] Bandwidth replication_lane_rate() const { return replication_lane_.total_rate(); }

  /// GC inputs (§III.B deletion): when this RM last served the file (zero =
  /// never), when the replica landed here, and whether the file has an
  /// active stream on this RM right now.
  [[nodiscard]] SimTime last_access_of(FileId file) const;
  [[nodiscard]] SimTime stored_at_of(FileId file) const;
  [[nodiscard]] bool has_active_flow_for(FileId file) const;

  /// Wire the replication agent that this RM pokes after serving a request.
  void attach_replication_agent(ReplicationAgent* agent) { agent_ = agent; }

  // --- audit accessors (check::InvariantAuditor) -------------------------------

  /// Writes reserved on disk but not yet durable (torn-write rollback set).
  [[nodiscard]] std::size_t pending_write_count() const { return pending_writes_.size(); }
  [[nodiscard]] bool has_pending_write(FileId file) const { return pending_writes_.contains(file); }

  /// Replication copies accepted but not yet landed.
  [[nodiscard]] std::size_t pending_incoming_count() const { return pending_incoming_.size(); }
  [[nodiscard]] bool has_pending_incoming(FileId file) const {
    return pending_incoming_.contains(file);
  }

  /// Open explicit (VFS) sessions.
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  // --- failure injection -------------------------------------------------------

  /// Slow-disk fault: re-dispatch the blkio cap to `factor` of the nominal
  /// dispatched bandwidth (factor in (0, 1]). Allocations admitted under the
  /// old cap persist — firm admission can legitimately sit above the degraded
  /// cap, which the ledger records as over-allocation (R_OA > 0, §VI.A.1).
  void throttle_disk(double factor);

  /// Restore the nominal dispatched bandwidth after a slow-disk window.
  void restore_disk() { throttle_disk(1.0); }

  /// TEST ONLY — chaos-harness bug injection: skip the RM-side final firm
  /// admission check in handle_data_request. Exists solely so the fuzzer's
  /// acceptance tests can prove that a real over-allocation bug is caught by
  /// the firm-cap invariant within a few seeds. Never set in production code.
  void test_only_skip_firm_admission(bool skip) { test_skip_firm_admission_ = skip; }

  /// Crash the RM: all volatile state dies (active flows, explicit sessions,
  /// history, heat, replication-lane transfers and trigger state); the disk
  /// contents survive, like a host reboot. In-flight completions observe the
  /// epoch change and report the streams as aborted. Messages delivered to
  /// an offline RM are dropped by the senders' delivery closures.
  void fail();

  /// Bring the RM back online (the caller re-registers it with the MM).
  void recover();

  struct Counters {
    std::uint64_t cfps_answered = 0;
    std::uint64_t data_requests = 0;
    std::uint64_t firm_rejects = 0;
    std::uint64_t streams_completed = 0;
    std::uint64_t writes_completed = 0;
    std::uint64_t releases = 0;
    std::uint64_t replication_requests = 0;
    std::uint64_t replication_accepts = 0;
    std::uint64_t replication_rejects = 0;
    std::uint64_t replicas_received = 0;
    std::uint64_t replicas_deleted = 0;
    std::uint64_t replication_bytes_in = 0;  // payload bytes landed by replication
    std::uint64_t qos_throttled = 0;         // data requests refused by a tenant bucket
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Optional observability sink; null (the default) disables all tracing.
  /// `track` is this RM's trace track id (Chrome tid).
  void set_observer(obs::Recorder* recorder, std::uint32_t track) {
    obs_ = recorder;
    obs_track_ = track;
  }

  /// Optional multi-tenant QoS manager; null (the default) disables tenant
  /// admission and accounting entirely — the untenanted paper behavior.
  /// `rm_index` selects this RM's token-bucket column.
  void set_qos(qos::QosManager* qos, std::size_t rm_index) {
    qos_ = qos;
    qos_index_ = rm_index;
  }

 private:
  /// Byte size and occupation time of a stored key. Whole files come from
  /// the directory; stripe shards derive from the base file's metadata —
  /// ceil(size/k) bytes streamed at rate/k, so the occupation time equals
  /// the whole file's duration.
  struct ResolvedFile {
    Bytes size;
    SimTime duration;
  };
  [[nodiscard]] ResolvedFile resolve(FileId key) const;

  /// Re-sync the allocation ledger after any flow change.
  void sync_ledger();

  /// Session key combining client node and client-scoped open id.
  [[nodiscard]] static std::uint64_t session_key(net::NodeId client, std::uint64_t open_id) {
    return (static_cast<std::uint64_t>(client.value()) << 40) ^ open_id;
  }

  net::NodeId id_;
  Params params_;
  storage::ThrottleGroup& group_;
  sim::Simulator& sim_;
  net::Network& net_;
  const FileDirectory& directory_;
  const core::ReplicationConfig& replication_cfg_;

  storage::DiskStore disk_;
  storage::BandwidthLedger ledger_;
  core::TwoQueueHistory history_;
  core::OccupationTracker occupancy_;
  core::FileHeat heat_;
  core::ReplicationTrigger trigger_;

  struct Session {
    storage::FlowId flow{};
    FileId file = 0;
    bool write = false;
  };
  std::unordered_map<std::uint64_t, Session> sessions_;  // explicit (VFS) opens
  std::unordered_set<FileId> pending_incoming_;                  // replication in flight
  std::unordered_set<FileId> pending_writes_;                    // reserved, not yet durable
  storage::FlowTable replication_lane_;                          // B_REV transfers
  std::unordered_map<FileId, SimTime> last_access_;              // GC idleness input
  std::unordered_map<FileId, SimTime> stored_at_;                // GC min-age input
  bool online_ = true;
  std::uint64_t epoch_ = 0;  // bumped on fail(); guards stale completions
  Bandwidth nominal_cap_;    // dispatched cap before any slow-disk fault
  bool test_skip_firm_admission_ = false;  // chaos-harness bug injection only
  ReplicationAgent* agent_ = nullptr;
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
  qos::QosManager* qos_ = nullptr;  // null = untenanted cluster
  std::size_t qos_index_ = 0;       // this RM's token-bucket column
};

}  // namespace sqos::dfs
