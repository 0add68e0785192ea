// Distributed File System Client — the ECNP Requester (§III.A).
//
// Drives the three-phase resource-management flow for every access:
//   1. resource exploration — query the MM for the replica holders;
//   2. resource negotiation — CFP fan-out, collect every RM's bid, evaluate
//      with the configured (α, β, γ) selection policy;
//   3. data communication — allocate on the winner and stream.
//
// A plain-CNP mode (broadcast the CFP to every registered RM, no matchmaker
// query) exists for the ECNP-traffic ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/admission.hpp"
#include "core/qos_types.hpp"
#include "core/selection_policy.hpp"
#include "dfs/cluster_config.hpp"
#include "dfs/ecnp_messages.hpp"
#include "dfs/file_types.hpp"
#include "dfs/mm_directory.hpp"
#include "dfs/resource_manager.hpp"
#include "dfs/rm_index.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/stripe_layout.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/small_map.hpp"

namespace sqos::obs {
struct Recorder;
}

namespace sqos::qos {
class QosManager;
}

namespace sqos::dfs {

class DfsClient {
 public:
  struct Params {
    std::string name;  // "DFSC1" ..
    core::AllocationMode mode = core::AllocationMode::kFirm;
    core::PolicyWeights policy;
    NegotiationModel negotiation = NegotiationModel::kEcnp;
    /// Negotiation deadline: bids not received by then are treated as
    /// refusals (a crashed RM must not hang every open that CFPs it — the
    /// matchmaker's resource list can be stale, §II).
    SimTime bid_timeout = SimTime::seconds(2.0);

    /// Holder-cache TTL: remember the MM's holder list per file and skip the
    /// exploration round trip for repeat opens within the TTL. Zero (the
    /// default, and the paper's behaviour) disables the cache. Staleness is
    /// tolerated by construction: an RM that lost the replica answers its
    /// CFP with has_file = false, and replication-created replicas are
    /// simply not used until the entry expires.
    SimTime holder_cache_ttl = SimTime::zero();

    /// Owning tenant id, stamped on every data request this client issues.
    /// 0 (the default) is either the first tenant or — in untenanted
    /// clusters — an inert label the RMs ignore.
    std::uint32_t tenant = 0;

    /// QoS accounting sink (null in untenanted clusters). Demand is recorded
    /// here when the access *starts* — failed negotiations never reach an
    /// RM, but their unmet demand must still count against the tenant floor.
    qos::QosManager* qos = nullptr;

    /// Storage layout this client reads under. Replication (the default)
    /// keeps every code path byte-identical to the paper's system; an EC
    /// policy routes stream_file through the striped read path: stripe
    /// query, CFP fan-out over all shard holders, and a k-way parallel
    /// transfer that tolerates up to m lost shards.
    storage::LayoutPolicy layout;
  };

  /// Completion of a whole streamed access (or of the open, for explicit
  /// sessions). The Status conveys firm-mode open failure.
  using Callback = std::function<void(const Status&)>;

  DfsClient(net::NodeId id, Params params, sim::Simulator& simulator, net::Network& network,
            MetadataDirectory& mm, const FileDirectory& directory, Rng rng);

  DfsClient(const DfsClient&) = delete;
  DfsClient& operator=(const DfsClient&) = delete;

  /// Wire the cluster's shared RM index so delivery closures can invoke RM
  /// handlers. One dense table serves every client — the previous per-client
  /// map copies dominated the memory footprint (and the delivery-path
  /// profile) at 10^5 clients.
  void attach_rms(const RmIndex& rms) { rm_index_ = &rms; }

  [[nodiscard]] net::NodeId node_id() const { return id_; }

  [[nodiscard]] const std::string& name() const { return params_.name; }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Runtime reconfiguration (chaos-harness mode flips): switch the
  /// allocation scenario for every *future* negotiation. In-flight opens
  /// carry the firm flag they were admitted under, so a flip never corrupts
  /// an existing allocation — but once any client has run soft, the firm
  /// no-over-allocation invariant no longer holds cluster-wide.
  void set_allocation_mode(core::AllocationMode mode) { params_.mode = mode; }

  // --- high-level access (experiments) --------------------------------------

  /// Stream the whole file at its bitrate (open -> transfer -> complete).
  /// `done` fires with ok() on completion or an error on open failure.
  void stream_file(FileId file, Callback done = {});

  /// Write path: create up to `replicas` initial copies of a freshly
  /// registered file (no replicas may exist yet). The owning MM shard
  /// supplies the candidate RM list, every candidate bids, the selection
  /// policy ranks them, and the top candidates with disk space (and, under
  /// firm allocation, bandwidth) receive the written data at the file's
  /// bitrate. Each completed copy is committed to the MM. `done` fires ok()
  /// when at least one replica landed.
  void write_file(FileId file, std::size_t replicas, Callback done = {});

  // --- explicit sessions (VFS adapter) ---------------------------------------

  /// Negotiate and allocate; on success `opened` receives a session handle.
  void open(FileId file, std::function<void(Result<std::uint64_t>)> opened);

  /// Negotiate an explicit *write* session for a freshly registered file:
  /// the winner reserves disk space and write bandwidth; data is paced by
  /// the caller (VFS write()) and the replica becomes durable at
  /// release_write(fd, true).
  void open_write(FileId file, std::function<void(Result<std::uint64_t>)> opened);

  /// Free the allocation of an explicit session.
  void release(std::uint64_t session);

  /// End an explicit write session. `commit` true makes the replica durable
  /// and registers it with the MM; false abandons and rolls back the
  /// reservation.
  void release_write(std::uint64_t session, bool commit);

  /// Resource-exploration query used by readdir: holders of `file`.
  void query_holders(FileId file, std::function<void(std::vector<net::NodeId>)> reply);

  // --- metrics ---------------------------------------------------------------

  struct Counters {
    std::uint64_t opens_attempted = 0;
    std::uint64_t opens_failed = 0;      // firm real-time open failures
    std::uint64_t streams_completed = 0;
    std::uint64_t bids_received = 0;
    std::uint64_t cfps_sent = 0;
    /// Rounds decided at a deadline: on partial bids, or failed because the
    /// matchmaker never answered the exploration.
    std::uint64_t bid_timeouts = 0;
    std::uint64_t writes_attempted = 0;
    std::uint64_t writes_failed = 0;     // no replica could be placed
    std::uint64_t replicas_written = 0;
    /// Time from open to the winner selection, summed over negotiations —
    /// the ECNP control-plane cost per access.
    std::uint64_t negotiation_us_sum = 0;
    std::uint64_t negotiations = 0;
    std::uint64_t holder_cache_hits = 0;
    std::uint64_t holder_cache_misses = 0;
    std::uint64_t ec_reads = 0;           // striped reads completed
    std::uint64_t ec_degraded_reads = 0;  // completed using >= 1 parity shard
    std::uint64_t ec_failed_reads = 0;    // < k shards reachable/admissible
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Optional observability sink; null (the default) disables all tracing.
  /// `track` is this client's trace track id (Chrome tid).
  void set_observer(obs::Recorder* recorder, std::uint32_t track) {
    obs_ = recorder;
    obs_track_ = track;
  }

 private:
  /// What every ECNP round keeps, whichever flow runs it. The shared legs
  /// below (deadlines, bid intake) work on these fields alone.
  struct Round {
    FileId file = 0;
    Bandwidth required;                // B_req, carried by every CFP of the round
    SimTime started;                   // negotiation latency and trace spans
    std::size_t expected_bids = 0;
    std::vector<BidMsg> bids;          // in arrival order
    sim::EventId timeout_event{};      // pending exploration or bid deadline
    Callback done;                     // streamed access, write or striped read
    bool evaluated = false;            // bids already scored (late bids drop)
  };

  struct OpenContext : Round {
    bool explicit_session = false;
    bool write_session = false;
    std::function<void(Result<std::uint64_t>)> opened;  // explicit session
  };

  struct WriteContext : Round {
    Bytes size;
    std::size_t replicas = 1;
    std::vector<BidMsg> ranked;        // admissible candidates, best first
    std::size_t next_candidate = 0;    // failover cursor into `ranked`
    std::size_t pending_writes = 0;
    std::size_t succeeded = 0;
  };

  /// One in-flight striped read. `required` is the sub-stream rate (file
  /// bitrate / k), and bid_shard[i] is the shard that bids[i] answers for.
  /// The read dispatches k parallel sub-streams and completes when all of
  /// them finish.
  struct EcReadContext : Round {
    std::uint8_t k = 0;
    std::uint8_t m = 0;
    bool parity_used = false;          // any chosen shard index >= k
    bool shard_failed = false;         // a dispatched sub-stream was rejected
    std::vector<std::uint8_t> bid_shard;
    std::size_t pending_shards = 0;    // dispatched sub-streams outstanding
  };

  // The legs of one ECNP round, shared by every flow. Each flow passes its
  // own continuation; no leg knows which flow called it.
  template <typename Ctx, typename Fail>
  void arm_exploration(util::SmallU64Map<Ctx>& table, std::uint64_t id, Fail fail);
  template <typename Ctx, typename Evaluate>
  void arm_bid_deadline(util::SmallU64Map<Ctx>& table, std::uint64_t id, std::size_t expected,
                        Evaluate evaluate);
  template <typename OnBid>
  void send_cfp(net::NodeId target, const CfpMsg& cfp, OnBid on_bid);
  template <typename Ctx, typename Keep, typename Evaluate>
  void file_bid(util::SmallU64Map<Ctx>& table, const BidMsg& bid, Keep keep, Evaluate evaluate);
  template <typename OnComplete>
  void send_data_request(net::NodeId target, DataRequestMsg request, SimTime expected,
                         OnComplete on_complete);

  // Reads and explicit sessions.
  void start_negotiation(FileId file, OpenContext ctx);
  template <typename OnReply>
  void ask_holders(FileId file, OnReply on_reply);
  void on_holders(std::uint64_t open_id, const std::vector<net::NodeId>& holders);
  void send_cfps(std::uint64_t open_id, const std::vector<net::NodeId>& targets);
  void evaluate_bids(std::uint64_t open_id);
  void on_data_complete(const DataCompleteMsg& msg);
  void fail_open(std::uint64_t open_id, const Status& status);

  // Whole-file writes.
  void on_write_candidates(std::uint64_t write_id, const ReplicaListReplyMsg& reply);
  void evaluate_write_bids(std::uint64_t write_id);
  void dispatch_write(std::uint64_t write_id, net::NodeId target);
  void on_write_complete(net::NodeId rm, const DataCompleteMsg& msg);
  void finish_write(std::uint64_t write_id);
  void fail_write(std::uint64_t write_id, const Status& status);

  // Striped (EC) reads.
  void stream_striped(FileId file, Callback done);
  void on_layout(std::uint64_t ec_id, const LayoutReplyMsg& reply);
  void evaluate_ec_bids(std::uint64_t ec_id);
  void on_ec_shard_complete(std::uint64_t ec_id, bool accepted);
  void fail_ec_read(std::uint64_t ec_id, const Status& status);

  [[nodiscard]] ResourceManager* rm_by_node(net::NodeId id) const;

  net::NodeId id_;
  Params params_;
  sim::Simulator& sim_;
  net::Network& net_;
  MetadataDirectory& mm_;
  const FileDirectory& directory_;
  core::SelectionPolicy policy_;
  Rng rng_;

  // Reused per-negotiation winner-selection scratch (no per-open allocation
  // once the high-water mark is reached).
  std::vector<double> score_scratch_;
  core::SelectionTree select_scratch_;

  const RmIndex* rm_index_ = nullptr;  // cluster-owned, shared by all clients
  struct SessionInfo {
    net::NodeId rm;
    FileId file = 0;
    bool write = false;
  };

  struct CachedHolders {
    std::vector<net::NodeId> holders;
    SimTime expires;
  };

  /// A release awaiting its ack. Releases are retried with backoff until
  /// acked — a release message lost to a partition must not leak the RM-side
  /// session allocation forever (found by the chaos harness).
  struct PendingRelease {
    SessionInfo info;
    ReleaseMsg msg;
    std::size_t attempt = 0;
    sim::EventId retry{};
  };

  void end_session(util::SmallU64Map<SessionInfo>::iterator it, bool commit);
  void send_release(std::uint64_t session);
  void on_release_ack(std::uint64_t session);

  // Flat maps, not unordered_map: every delivered message looks one up. They
  // are not small: util/small_map.hpp records the measured sizes per lookup
  // (74 entries on average on bench/e2e scale-2048, 148 at most).
  util::SmallU64Map<OpenContext> opens_;
  util::SmallU64Map<WriteContext> writes_;
  util::SmallU64Map<EcReadContext> ec_reads_;
  util::SmallU64Map<SessionInfo> sessions_;  // open_id -> serving RM
  util::SmallU64Map<PendingRelease> pending_releases_;
  std::unordered_map<FileId, CachedHolders> holder_cache_;
  std::uint64_t next_open_id_ = 1;
  Counters counters_;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
};

}  // namespace sqos::dfs
