#include "qos/qos_manager.hpp"

#include <algorithm>
#include <cmath>

namespace sqos::qos {

QosManager::QosManager(std::vector<TenantSlo> slos, ControllerConfig config, std::size_t rm_count)
    : slos_{std::move(slos)}, config_{config}, rm_count_{rm_count} {
  client_begin_.reserve(slos_.size() + 1);
  client_begin_.push_back(0);
  for (const TenantSlo& slo : slos_) {
    client_begin_.push_back(client_begin_.back() + slo.clients);
  }
  runtime_.resize(slos_.size());
  const SimTime origin = SimTime::zero();
  for (TenantRuntime& rt : runtime_) {
    rt.buckets.reserve(rm_count_);
    const std::int64_t per_rm = kUncappedRate / static_cast<std::int64_t>(rm_count_ == 0 ? 1 : rm_count_);
    for (std::size_t r = 0; r < rm_count_; ++r) {
      rt.buckets.emplace_back(per_rm, burst_for(per_rm), origin);
    }
  }
}

TenantId QosManager::tenant_of_client(std::size_t client_index) const {
  // client_begin_ is a short sorted prefix-sum vector; linear scan is fine.
  for (std::size_t t = 0; t + 1 < client_begin_.size(); ++t) {
    if (client_index < client_begin_[t + 1]) return static_cast<TenantId>(t);
  }
  return slos_.empty() ? 0 : static_cast<TenantId>(slos_.size() - 1);
}

void QosManager::on_request(TenantId t, Bytes size) {
  if (t >= runtime_.size()) return;
  TenantRuntime& rt = runtime_[t];
  const auto b = static_cast<std::uint64_t>(size.count());
  rt.stats.demand_bytes += b;
  rt.window.demand_bytes += b;
}

bool QosManager::admit(TenantId t, std::size_t rm_index, Bytes size, SimTime now) {
  if (t >= runtime_.size() || rm_index >= rm_count_) return true;
  TenantRuntime& rt = runtime_[t];
  if (rt.buckets[rm_index].try_consume(size.count(), now)) {
    rt.stats.admitted += 1;
    return true;
  }
  rt.stats.throttled += 1;
  rt.window.throttled += 1;
  return false;
}

void QosManager::on_complete(TenantId t, Bytes delivered, SimTime latency) {
  if (t >= runtime_.size()) return;
  TenantRuntime& rt = runtime_[t];
  const auto b = static_cast<std::uint64_t>(delivered.count() < 0 ? 0 : delivered.count());
  rt.stats.delivered_bytes += b;
  rt.window.delivered_bytes += b;
  rt.stats.completed += 1;
  const SimTime target = slos_[t].latency_target;
  if (target > SimTime::zero()) {
    rt.stats.latency_samples += 1;
    rt.stats.latency_sum_us += static_cast<std::uint64_t>(latency.as_micros() < 0 ? 0 : latency.as_micros());
    if (latency > target) rt.stats.latency_violations += 1;
  }
}

std::int64_t QosManager::burst_for(std::int64_t rate_bytes_per_sec) const {
  constexpr std::int64_t kUsPerSec = 1'000'000;
  const std::int64_t win_us = config_.burst_window.as_micros();
  std::int64_t burst = 0;
  if (win_us > 0 && rate_bytes_per_sec > 0) {
    if (rate_bytes_per_sec > (INT64_MAX / 2) / win_us) {
      burst = INT64_MAX / 2;  // saturate: uncapped rates never wrap
    } else {
      burst = rate_bytes_per_sec * win_us / kUsPerSec;
    }
  }
  return burst < config_.min_burst_bytes ? config_.min_burst_bytes : burst;
}

void QosManager::apply_rate(TenantRuntime& rt, std::int64_t rate_bytes_per_sec, SimTime now) {
  rt.stats.rate_bytes_per_sec = rate_bytes_per_sec;
  const auto rms = static_cast<std::int64_t>(rm_count_ == 0 ? 1 : rm_count_);
  const std::int64_t per_rm = rate_bytes_per_sec / rms;
  const std::int64_t burst = burst_for(per_rm);
  for (TokenBucket& bucket : rt.buckets) {
    bucket.set_rate(per_rm, now);
    bucket.set_burst(burst);
  }
}

void QosManager::tick(SimTime now) {
  // Congestion signal: worst allocated/cap ratio across RMs, sampled in RM
  // index order (deterministic fold).
  double max_util = 0.0;
  if (probe_) {
    for (std::size_t r = 0; r < rm_count_; ++r) {
      const double u = probe_(r);
      if (u > max_util) max_util = u;
    }
  }
  const bool congested = max_util > config_.congestion_threshold;
  const double period_s = config_.period.as_seconds();

  for (std::size_t t = 0; t < runtime_.size(); ++t) {
    TenantRuntime& rt = runtime_[t];
    const TenantSlo& slo = slos_[t];
    rt.stats.periods += 1;

    // Instantaneous service rate: streams hold piecewise-constant bandwidth
    // reservations for minutes, so the allocated flow rate — not the lumpy
    // completion credits — is what the tenant is actually receiving now.
    const double allocated_bps = rate_probe_ ? rate_probe_(static_cast<TenantId>(t)) : 0.0;

    // Demand-aware floor check: the operator owes min(demand, floor) bytes
    // this period; an idle tenant (zero demand) cannot be violated, and a
    // tenant currently served at or above its floor rate is not violated
    // just because no long-running stream happened to complete this period.
    const double floor_bytes = slo.floor.bps() * period_s;
    const auto demand = static_cast<double>(rt.window.demand_bytes);
    const auto delivered = static_cast<double>(rt.window.delivered_bytes);
    const bool floor_violated = demand > 0.0 && allocated_bps < slo.floor.bps() &&
                                delivered < std::min(demand, floor_bytes);
    if (floor_violated) rt.stats.floor_violations += 1;

    if (config_.enabled && period_s > 0.0) {
      const double achieved_bps = std::max(delivered / period_s, allocated_bps);
      const double ceiling_bps = slo.ceiling.bps();
      const std::int64_t rate = rt.stats.rate_bytes_per_sec;
      if (congested && achieved_bps > ceiling_bps) {
        // Multiplicative decrease: reclaim from a ceiling-busting tenant.
        // Working from the achieved rate (not the possibly-uncapped bucket
        // rate) makes the first decrease land near real consumption.
        const double base = std::min(static_cast<double>(rate), achieved_bps);
        auto next = static_cast<std::int64_t>(std::llround(base * config_.md_factor));
        const auto floor_bps_i = static_cast<std::int64_t>(std::llround(slo.floor.bps()));
        if (next < floor_bps_i) next = floor_bps_i;
        if (next < rate) {
          rt.stats.rate_decreases += 1;
          apply_rate(rt, next, now);
        }
      } else if (floor_violated && rt.window.throttled > 0) {
        // Additive increase: our own bucket starved a tenant below its
        // floor — grant more rate, up to the declared ceiling.
        const auto ceiling_i = static_cast<std::int64_t>(std::llround(ceiling_bps));
        if (rate < ceiling_i) {
          std::int64_t next = rate + config_.ai_bytes_per_sec;
          if (next > ceiling_i) next = ceiling_i;
          rt.stats.rate_increases += 1;
          apply_rate(rt, next, now);
        }
      }
    }

    rt.window = Window{};
  }
}

}  // namespace sqos::qos
