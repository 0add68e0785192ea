// Multi-tenant QoS manager: token-bucket admission + AIMD control loop.
//
// One QosManager serves a whole cluster. It owns, per tenant, a row of
// token buckets (one per RM) that gate data-request admission, plus the
// demand/delivery accounting the global controller reads. The controller
// runs on a fixed sim-time period (ticks pre-scheduled by the Cluster,
// mirroring start_resource_refresh): it samples per-RM utilization through
// an injected probe, then adjusts tenant rates AIMD-style — multiplicative
// decrease on ceiling-busting tenants under congestion, additive increase
// for floor-violating tenants whose requests the buckets throttled.
//
// Everything is simulated-time integer arithmetic over a fixed tenant
// order, so all tables derived from this state are byte-identical across
// repeats and jobs= values.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "qos/tenant.hpp"
#include "qos/token_bucket.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace sqos::qos {

/// Monotonic per-tenant counters, exported to stats/ and obs/.
struct TenantStats {
  std::uint64_t demand_bytes = 0;        // bytes requested (pre-admission)
  std::uint64_t delivered_bytes = 0;     // bytes credited by completions
  std::uint64_t admitted = 0;            // requests past the token bucket
  std::uint64_t throttled = 0;           // requests refused by the bucket
  std::uint64_t completed = 0;           // completed transfers
  std::uint64_t periods = 0;             // controller periods accounted
  std::uint64_t floor_violations = 0;    // periods with unmet floor demand
  std::uint64_t latency_samples = 0;     // completions with a latency target
  std::uint64_t latency_violations = 0;  // samples exceeding the target
  std::uint64_t latency_sum_us = 0;      // sum of sampled latencies
  std::uint64_t rate_decreases = 0;      // controller MD events
  std::uint64_t rate_increases = 0;      // controller AI events
  std::int64_t rate_bytes_per_sec = kUncappedRate;  // current global rate
};

class QosManager {
 public:
  /// `slos` must already be validated (names filled, floor <= ceiling).
  /// Buckets start uncapped: with the controller disabled the cluster
  /// behaves exactly like the untenanted paper model, plus accounting.
  QosManager(std::vector<TenantSlo> slos, ControllerConfig config, std::size_t rm_count);

  [[nodiscard]] std::size_t tenant_count() const { return slos_.size(); }
  [[nodiscard]] const TenantSlo& slo(TenantId t) const { return slos_[t]; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] const TenantStats& stats(TenantId t) const { return runtime_[t].stats; }

  /// Contiguous client partition: tenant t owns DFSC indices
  /// [client_begin(t), client_begin(t) + slo(t).clients).
  [[nodiscard]] std::size_t client_begin(TenantId t) const { return client_begin_[t]; }
  [[nodiscard]] std::size_t total_clients() const { return client_begin_.back(); }
  [[nodiscard]] TenantId tenant_of_client(std::size_t client_index) const;

  /// Installed by the Cluster: allocated/cap utilization of RM `rm_index`.
  void set_utilization_probe(std::function<double(std::size_t)> probe) {
    probe_ = std::move(probe);
  }

  /// Installed by the Cluster: the tenant's currently allocated flow rate
  /// (bytes/s, summed over all RMs). Flows are piecewise-constant bandwidth
  /// reservations, so this is the tenant's instantaneous throughput; the
  /// controller reads it because completion credits alone are far too lumpy
  /// against a short period (one multi-minute stream delivers all its bytes
  /// in the single period it completes in).
  void set_tenant_rate_probe(std::function<double(TenantId)> probe) {
    rate_probe_ = std::move(probe);
  }

  /// Request-path hooks. on_request records demand at the *client* when an
  /// access starts (failed negotiations never reach an RM, but their unmet
  /// demand must count against the floor); admit is called by the serving
  /// RM — it refills the (tenant, rm) bucket to `now` and consumes `size`
  /// bytes or refuses.
  void on_request(TenantId t, Bytes size);
  [[nodiscard]] bool admit(TenantId t, std::size_t rm_index, Bytes size, SimTime now);

  /// Completion credit: `delivered` bytes reached the client; `latency` is
  /// admission-to-completion transfer time (checked against the tenant's
  /// latency target when one is set).
  void on_complete(TenantId t, Bytes delivered, SimTime latency);

  /// One controller period: per-tenant SLO accounting always runs; the
  /// AIMD rate adjustment runs only when config().enabled.
  void tick(SimTime now);

  /// Test hook: current token balance of the (tenant, rm) bucket.
  [[nodiscard]] std::int64_t bucket_tokens(TenantId t, std::size_t rm_index, SimTime now) {
    return runtime_[t].buckets[rm_index].tokens(now);
  }

 private:
  struct Window {  // per-period accumulators, reset by tick()
    std::uint64_t demand_bytes = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t throttled = 0;
  };
  struct TenantRuntime {
    std::vector<TokenBucket> buckets;  // one per RM
    TenantStats stats;
    Window window;
  };

  [[nodiscard]] std::int64_t burst_for(std::int64_t rate_bytes_per_sec) const;
  void apply_rate(TenantRuntime& rt, std::int64_t rate_bytes_per_sec, SimTime now);

  std::vector<TenantSlo> slos_;
  ControllerConfig config_;
  std::size_t rm_count_;
  std::vector<std::size_t> client_begin_;  // prefix sums, size tenant_count()+1
  std::vector<TenantRuntime> runtime_;
  std::function<double(std::size_t)> probe_;
  std::function<double(TenantId)> rate_probe_;
};

}  // namespace sqos::qos
