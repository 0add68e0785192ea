// Cluster topology & behaviour configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/deletion_policy.hpp"
#include "core/history_window.hpp"
#include "core/qos_types.hpp"
#include "core/replication_config.hpp"
#include "core/selection_policy.hpp"
#include "net/latency_model.hpp"
#include "qos/tenant.hpp"
#include "storage/stripe_layout.hpp"
#include "util/units.hpp"

namespace sqos::dfs {

/// One physical machine: a local disk with a sustained bandwidth that gets
/// dispatched to the VMs (RMs) placed on it via blkio caps.
struct MachineSpec {
  std::string name;
  Bandwidth sustained = Bandwidth::mbytes_per_sec(16.0);
};

/// One resource-manager VM.
struct RmSpec {
  std::string name;                       // "RM1" ..
  Bandwidth bandwidth;                    // dispatched blkio cap
  Bytes disk_capacity = Bytes::gib(16.0);
  std::size_t machine = 0;                // index into ClusterConfig::machines
};

/// ECNP sends CFPs to the MM's holders of the file; plain CNP broadcasts
/// them to every RM.
enum class NegotiationModel : std::uint8_t { kEcnp, kCnp };

struct ClusterConfig {
  std::vector<MachineSpec> machines;
  std::vector<RmSpec> rms;
  std::size_t client_count = 1;

  /// Metadata-manager shards on the consistent-hash ring (§VI.A's DHT note);
  /// 1 = the paper's single MM.
  std::size_t mm_shards = 1;

  /// Event-loop execution shards. The simulator runs one serial event queue,
  /// so Cluster::build rejects any value other than 1; the field stays for
  /// callers that set it explicitly.
  std::size_t exec_shards = 1;

  core::AllocationMode mode = core::AllocationMode::kFirm;
  core::PolicyWeights policy = core::PolicyWeights::p100();
  NegotiationModel negotiation = NegotiationModel::kEcnp;
  core::ReplicationConfig replication;
  core::DeletionConfig deletion;
  core::HistoryParams history;
  net::LatencyModel::Params latency;

  /// Client negotiation deadline (see DfsClient::Params::bid_timeout).
  SimTime bid_timeout = SimTime::seconds(2.0);

  /// Client holder-cache TTL (see DfsClient::Params::holder_cache_ttl);
  /// zero = the paper's always-query behaviour.
  SimTime holder_cache_ttl = SimTime::zero();

  /// Multi-tenant QoS: tenants partition the clients into contiguous index
  /// ranges (tenant i owns the slo.clients indices after tenant i-1's).
  /// Empty (the default) disables the QoS subsystem entirely — no manager,
  /// no buckets, byte-identical untenanted behavior. When non-empty, the
  /// per-tenant client counts must sum to client_count.
  std::vector<qos::TenantSlo> tenants;

  /// Global AIMD controller settings (only read when tenants is non-empty).
  qos::ControllerConfig qos_controller;

  /// Storage layout for reads (see storage::LayoutPolicy). Replication (the
  /// default) keeps every run byte-identical to the historical goldens; an
  /// EC policy routes client streams through the striped read path. Stripe
  /// *placement* is the workload's job (Cluster::place_stripe).
  storage::LayoutPolicy layout;

  std::uint64_t seed = 1;
};

}  // namespace sqos::dfs
