// Cluster — wiring of the full distributed file system on the simulator.
//
// Owns the simulator, the network fabric, the physical block devices with
// their per-VM throttle groups, the MM, the RMs, the replication agent and
// the DFSC clients, and performs the paper's initialization order (§III.B):
// the MM comes up first, then every RM registers, and the DFSCs take over
// last.
#pragma once

#include <memory>
#include <vector>

#include "dfs/cluster_config.hpp"
#include "dfs/dfs_client.hpp"
#include "dfs/file_types.hpp"
#include "dfs/gc_agent.hpp"
#include "dfs/mm_directory.hpp"
#include "dfs/replication_agent.hpp"
#include "dfs/resource_manager.hpp"
#include "dfs/rm_index.hpp"
#include "net/network.hpp"
#include "qos/qos_manager.hpp"
#include "sim/simulator.hpp"
#include "storage/block_device.hpp"
#include "util/error.hpp"

namespace sqos::dfs {

class Cluster {
 public:
  /// Validate the configuration and construct all components. The returned
  /// cluster is fully wired; call start() to schedule the registration
  /// protocol, then drive simulator().
  [[nodiscard]] static Result<std::unique_ptr<Cluster>> build(ClusterConfig config,
                                                              FileDirectory directory);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Schedule the §III.B initialization protocol at the current simulated
  /// time: RMs send their registration messages to the (already running) MM.
  void start();

  /// Anti-entropy: every `interval` until `until`, each online RM re-sends
  /// its resource information to every MM shard (the RM's §III.A duty to
  /// "maintain the dynamic runtime information of its host"). Heals MM state
  /// after commit/delete messages lost to partitions or crashes.
  void start_resource_refresh(SimTime interval, SimTime until);

  /// Multi-tenant QoS control loop: pre-schedule one controller tick per
  /// configured period until `until` (inclusive). No-op on untenanted
  /// clusters. Accounting runs every tick; AIMD rate adjustment only when
  /// config().qos_controller.enabled.
  void start_qos_controller(SimTime until);

  /// Place a static replica on an RM (bootstrap; no protocol traffic).
  [[nodiscard]] Status place_replica(std::size_t rm_index, FileId file);

  /// Place one EC shard (packed shard key) on an RM during initial stripe
  /// placement: stores the shard bytes and bootstraps the MM stripe entry.
  [[nodiscard]] Status place_shard(std::size_t rm_index, FileId shard_key);

  /// Place the whole EC(k, m) stripe of `file`: shard i lands on rms[i]
  /// (rms.size() must equal k + m; distinct RMs give the anti-affinity the
  /// degraded-read guarantee relies on).
  [[nodiscard]] Status place_stripe(FileId file, std::uint8_t k, std::uint8_t m,
                                    const std::vector<std::size_t>& rms);

  /// Register a new file in the namespace (write path); the data lands via
  /// DfsClient::write_file. Fails on duplicate id or name.
  [[nodiscard]] Status add_file(FileMeta meta) { return directory_.add(std::move(meta)); }

  // --- failure injection -------------------------------------------------------

  /// Crash an RM. The MM entry is left stale on purpose — discovering the
  /// failure through timed-out bids is part of what the ECNP negotiation
  /// must tolerate (the matchmaker lacks up-to-date information, §I).
  void fail_rm(std::size_t rm_index);

  /// Reboot an RM and re-run its registration with the MM, which resets the
  /// MM's entry to the surviving disk contents.
  void recover_rm(std::size_t rm_index);

  // --- accessors -------------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return *sim_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] const net::Network& network() const { return *net_; }
  [[nodiscard]] MetadataDirectory& mm() { return *mm_; }
  [[nodiscard]] const MetadataDirectory& mm() const { return *mm_; }
  [[nodiscard]] ReplicationAgent& replication() { return *agent_; }
  [[nodiscard]] const ReplicationAgent& replication() const { return *agent_; }
  [[nodiscard]] GarbageCollector& gc() { return *gc_; }
  [[nodiscard]] const GarbageCollector& gc() const { return *gc_; }
  [[nodiscard]] const FileDirectory& directory() const { return directory_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  /// The tenant QoS manager, or null when the cluster is untenanted.
  [[nodiscard]] qos::QosManager* qos() { return qos_.get(); }
  [[nodiscard]] const qos::QosManager* qos() const { return qos_.get(); }

  [[nodiscard]] std::size_t rm_count() const { return rms_.size(); }
  [[nodiscard]] ResourceManager& rm(std::size_t i) { return *rms_[i]; }
  [[nodiscard]] const ResourceManager& rm(std::size_t i) const { return *rms_[i]; }

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] DfsClient& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] const DfsClient& client(std::size_t i) const { return *clients_[i]; }

  [[nodiscard]] std::size_t machine_count() const { return devices_.size(); }
  [[nodiscard]] const storage::BlockDevice& machine(std::size_t i) const { return *devices_[i]; }

  /// Sum of all RM allocations right now (aggregate utilization snapshots).
  [[nodiscard]] Bandwidth total_allocated() const;

  /// Wire an observability recorder into every component. Registers one
  /// trace track per client, RM, the replication agent and each MM shard —
  /// in that fixed order, so track ids (and the rendered trace) are a pure
  /// function of the configuration. Call before start() to capture the
  /// registration protocol. Pass-by-reference: the recorder must outlive the
  /// cluster (or be detached by attaching another).
  void attach_observability(obs::Recorder& recorder);

 private:
  Cluster(ClusterConfig config, FileDirectory directory);

  [[nodiscard]] Status construct();

  ClusterConfig config_;
  FileDirectory directory_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<storage::BlockDevice>> devices_;
  std::unique_ptr<MetadataDirectory> mm_;
  std::vector<std::unique_ptr<ResourceManager>> rms_;
  RmIndex rm_index_;  // shared NodeId -> RM lookup (clients, replication)
  std::unique_ptr<ReplicationAgent> agent_;
  std::unique_ptr<GarbageCollector> gc_;
  std::vector<std::unique_ptr<DfsClient>> clients_;
  std::unique_ptr<qos::QosManager> qos_;  // null when config_.tenants is empty
};

}  // namespace sqos::dfs
