// Experiment runner: builds the paper environment for one configuration,
// replays the generated access pattern, and extracts every metric the
// evaluation section reports. Bench binaries are thin sweeps over this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/qos_types.hpp"
#include "core/replication_config.hpp"
#include "core/selection_policy.hpp"
#include "dfs/cluster_config.hpp"
#include "exp/paper_setup.hpp"
#include "obs/metrics.hpp"
#include "stats/qos_metrics.hpp"
#include "stats/rm_monitor.hpp"
#include "stats/tenant_metrics.hpp"
#include "util/error.hpp"

namespace sqos::exp {

struct ExperimentParams {
  std::size_t users = 256;
  core::AllocationMode mode = core::AllocationMode::kFirm;
  core::PolicyWeights policy = core::PolicyWeights::p100();
  core::ReplicationConfig replication;  // default: static only
  core::DeletionConfig deletion;        // default: no GC
  dfs::NegotiationModel negotiation = dfs::NegotiationModel::kEcnp;
  std::uint64_t seed = 1;

  /// Execution shards (ClusterConfig::exec_shards). Only 1 is accepted.
  std::size_t shards = 1;

  /// Paper defaults; override for ablations.
  workload::CatalogParams catalog = paper_catalog_params();
  workload::PlacementParams placement = paper_placement_params();
  std::optional<dfs::ClusterConfig> cluster;  // default: paper_cluster_config()

  /// Storage layout. Replication (the default) places `placement.replicas`
  /// whole-file copies and leaves every metric byte-identical to the
  /// historical runs; an EC policy stripes each file as k+m shards
  /// (workload::place_stripes) and routes client reads through the striped
  /// path with degraded-read tolerance of up to m crashed holders.
  storage::LayoutPolicy layout;

  /// Access-pattern override for scale ablations (shorter windows / larger
  /// populations than the paper's 2 h @ 300 s). Unset = paper_pattern_params
  /// for `users`; when set, `users` is taken from the override instead.
  std::optional<workload::PatternParams> pattern;

  /// Multi-tenant QoS: tenants and controller settings are copied into the
  /// cluster config (see ClusterConfig::tenants); the controller ticks until
  /// the arrival window closes. Empty = the untenanted paper model.
  std::vector<qos::TenantSlo> tenants;
  qos::ControllerConfig qos_controller;

  /// Mixed-tenant arrival pattern (noisy-neighbor / bursty / diurnal).
  /// When set it overrides `pattern`/`users`, and its mix must have one
  /// entry per configured tenant: entry t's users are routed to tenant t's
  /// client range so every request carries the right tenant id.
  std::optional<workload::TenantPatternParams> tenant_pattern;

  /// Replay a saved trace (workload::save_trace format) instead of
  /// generating arrivals — the paper's fixed-pattern comparison methodology.
  /// `users` is ignored when set.
  std::optional<std::string> trace_path;

  /// Sampling interval for the bandwidth time series; zero disables the
  /// monitor (tables don't need it, figures do).
  SimTime monitor_interval = SimTime::zero();

  /// Write a deterministic Chrome trace-event JSON of the run to this path
  /// (docs/OBSERVABILITY.md). Unset (the default) disables tracing entirely
  /// — no recorder is attached and no hot-path work is done. Distinct from
  /// `trace_path`, which is a *workload replay input*. Under run_averaged
  /// only the first seed records (so the trace is independent of the seed
  /// count and jobs value).
  std::optional<std::string> obs_trace_path;

  /// Request replay starts after the registration protocol settles.
  SimTime start_offset = SimTime::seconds(5.0);
};

struct TimeSeriesPoint {
  double time_s = 0.0;
  double value_bps = 0.0;
};

struct [[nodiscard]] ExperimentResult {
  // Scalar QoS metrics.
  double fail_rate = 0.0;             // firm RT criterion
  double overallocate_ratio = 0.0;    // soft RT criterion (ΣS_OA / ΣS_TA)
  std::vector<stats::RmQosSummary> per_rm;

  // Multi-tenant QoS outputs (empty / identity values for untenanted runs).
  std::vector<stats::TenantSummary> per_tenant;
  double jain_index = 1.0;            // fairness over achieved throughput
  double floor_violation_rate = 0.0;  // Σ violations / Σ periods

  // Workload bookkeeping.
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;

  // Replication activity.
  std::uint64_t replication_rounds = 0;
  std::uint64_t copies_completed = 0;
  std::uint64_t destination_rejects = 0;
  std::uint64_t self_deletes = 0;
  std::uint64_t bytes_copied = 0;
  std::size_t final_total_replicas = 0;

  // Garbage collection.
  std::uint64_t gc_deletes = 0;
  std::uint64_t gc_bytes_reclaimed = 0;

  // Erasure-coded layout activity (zero on replication runs).
  std::uint64_t ec_reads = 0;
  std::uint64_t ec_degraded_reads = 0;
  std::uint64_t ec_failed_reads = 0;
  std::uint64_t stripes_degraded = 0;  // MM healthy -> degraded transitions

  /// Bytes occupied on all RM disks when the run ends — the storage-overhead
  /// axis of the EC-vs-replication comparison (collected for every layout).
  std::uint64_t storage_bytes_used = 0;

  // Control-plane traffic.
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t mm_messages = 0;  // messages received by the matchmaker(s)
  std::vector<std::uint64_t> mm_shard_messages;  // per-shard matchmaker load
  double mean_negotiation_ms = 0.0;  // open -> winner selection latency

  // Optional bandwidth time series (one per RM) when the monitor ran.
  std::vector<std::vector<TimeSeriesPoint>> rm_series;

  /// Observability registry snapshot (stats::collect_obs_metrics catalog),
  /// always collected — the counters exist whether or not tracing ran.
  /// run_averaged keeps the first seed's snapshot rather than averaging.
  std::vector<obs::MetricSample> obs_metrics;

  double simulated_seconds = 0.0;

  /// Total simulator events executed over the run — the deterministic work
  /// measure behind the events/sec scale curves (exact for a fixed seed;
  /// run_averaged folds it like the other counters).
  std::uint64_t executed_events = 0;
};

/// Run one experiment. Aborts (CHECK-style) on configuration errors — an
/// experiment binary with a bad setup must fail loudly, not produce numbers.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentParams& params);

/// Run `seeds` experiments differing only in seed and average the scalar,
/// per-RM and per-MM-shard metrics (the counters are averaged too, rounded).
/// Series come from the first seed.
///
/// `jobs` fans the independent per-seed runs out over a ParallelRunner;
/// results are merged in seed order, so the average is bit-identical at
/// every jobs value (jobs=1 is the legacy serial path, 0 = all cores).
[[nodiscard]] ExperimentResult run_averaged(ExperimentParams params, std::size_t seeds,
                                            std::size_t jobs);
[[nodiscard]] ExperimentResult run_averaged(ExperimentParams params, std::size_t seeds);

/// One-screen human-readable summary (scalar metrics, workload accounting,
/// replication/GC activity, control-plane traffic).
[[nodiscard]] std::string summarize(const ExperimentResult& result);

}  // namespace sqos::exp
