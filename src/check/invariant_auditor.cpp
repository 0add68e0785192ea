#include "check/invariant_auditor.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

#include "storage/stripe_layout.hpp"

namespace sqos::check {
namespace {

/// Compact number rendering for violation details.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Relative tolerance for comparing accumulated double integrals.
bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
}

}  // namespace

InvariantAuditor::InvariantAuditor(dfs::Cluster& cluster, Options options)
    : cluster_{cluster}, options_{options} {
  ledger_prev_.resize(cluster_.rm_count());
  last_audit_time_ = cluster_.simulator().now();
}

InvariantAuditor::~InvariantAuditor() { uninstall(); }

void InvariantAuditor::register_invariant(std::string name, std::string paper_ref,
                                          CheckFn check) {
  custom_.push_back(CustomInvariant{std::move(name), std::move(paper_ref), std::move(check)});
}

void InvariantAuditor::report(std::vector<Violation>& out, std::string invariant,
                              std::string paper_ref, std::string subject, std::string detail) {
  Violation v;
  v.invariant = std::move(invariant);
  v.paper_ref = std::move(paper_ref);
  v.at = cluster_.simulator().now();
  v.subject = std::move(subject);
  v.detail = std::move(detail);
  out.push_back(std::move(v));
}

void InvariantAuditor::check_flow_allocation_agreement(std::vector<Violation>& out) {
  const dfs::Cluster& c = cluster_;
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    double flow_sum = 0.0;
    for (const storage::Flow& f : rm.throttle_group().flows().active()) {
      flow_sum += f.rate.bps();
    }
    const double alloc = rm.allocated().bps();
    const double ledger = rm.ledger().current_allocation().bps();
    if (!close(flow_sum, alloc, 1e-9)) {
      report(out, "flow-allocation-agreement", "§III.A", rm.name(),
             "flow-sum " + num(flow_sum) + " B/s != recorded allocation " + num(alloc) + " B/s");
    }
    if (!close(alloc, ledger, 1e-9)) {
      report(out, "flow-allocation-agreement", "§III.A", rm.name(),
             "recorded allocation " + num(alloc) + " B/s != ledger allocation " + num(ledger) +
                 " B/s (missing sync_ledger?)");
    }
  }
}

void InvariantAuditor::check_firm_cap(std::vector<Violation>& out) {
  if (!options_.expect_firm_cap) return;
  const dfs::Cluster& c = cluster_;
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    const double alloc = rm.allocated().bps();
    const double cap = rm.cap().bps();
    if (alloc > cap && !close(alloc, cap, 1e-9)) {
      report(out, "firm-cap", "§VI.A.1", rm.name(),
             "allocated " + num(alloc) + " B/s exceeds dispatched cap " + num(cap) + " B/s");
    }
    if (rm.ledger().overallocated_bytes() > 1e-6) {
      report(out, "firm-cap", "§VI.A.1", rm.name(),
             "S_OA = " + num(rm.ledger().overallocated_bytes()) +
                 " bytes over-allocated under firm admission (R_OA must stay 0)");
    }
  }
}

void InvariantAuditor::check_ledger_conservation(std::vector<Violation>& out) {
  const dfs::Cluster& c = cluster_;
  if (ledger_prev_.size() != c.rm_count()) ledger_prev_.resize(c.rm_count());
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    const storage::BandwidthLedger& ledger = rm.ledger();
    const double assigned = ledger.assigned_bytes();
    const double delivered = ledger.delivered_bytes();
    const double over = ledger.overallocated_bytes();
    if (!close(assigned, delivered + over, 1e-9)) {
      report(out, "ledger-conservation", "§VI.A.1 Fig. 4", rm.name(),
             "assigned " + num(assigned) + " != delivered " + num(delivered) +
                 " + overallocated " + num(over));
    }
    const double ratio = ledger.overallocate_ratio();
    if (ratio < 0.0 || ratio > 1.0 + 1e-12) {
      report(out, "ledger-conservation", "§VI.A.1 Fig. 4", rm.name(),
             "R_OA = " + num(ratio) + " outside [0, 1]");
    }
    LedgerSnapshot& prev = ledger_prev_[i];
    const auto monotone = [](double now_v, double prev_v) {
      return now_v >= prev_v - 1e-9 * std::fmax(1.0, prev_v);
    };
    if (!monotone(assigned, prev.assigned) || !monotone(delivered, prev.delivered) ||
        !monotone(over, prev.overallocated)) {
      report(out, "ledger-conservation", "§VI.A.1 Fig. 4", rm.name(),
             "integral ran backwards: assigned " + num(prev.assigned) + " -> " + num(assigned) +
                 ", delivered " + num(prev.delivered) + " -> " + num(delivered) +
                 ", overallocated " + num(prev.overallocated) + " -> " + num(over));
    }
    prev.assigned = assigned;
    prev.delivered = delivered;
    prev.overallocated = over;
  }
}

void InvariantAuditor::check_non_negative_resources(std::vector<Violation>& out) {
  const dfs::Cluster& c = cluster_;
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    if (rm.remaining().bps() < 0.0) {
      report(out, "non-negative-resources", "§III.A", rm.name(),
             "negative remaining bandwidth " + num(rm.remaining().bps()) + " B/s");
    }
    if (rm.replication_lane_rate().bps() < 0.0) {
      report(out, "non-negative-resources", "§V", rm.name(),
             "negative replication-lane rate " + num(rm.replication_lane_rate().bps()) + " B/s");
    }
    const storage::DiskStore& disk = rm.disk();
    if (disk.free().count() < 0 || disk.used().count() < 0 ||
        disk.used() > disk.capacity()) {
      report(out, "non-negative-resources", "§III.A", rm.name(),
             "disk accounting out of range: used " + std::to_string(disk.used().count()) +
                 " of " + std::to_string(disk.capacity().count()) + " bytes");
    }
    std::int64_t content = 0;
    for (const std::uint64_t f : disk.file_keys()) content += disk.size_of(f).count();
    if (content != disk.used().count()) {
      report(out, "non-negative-resources", "§III.A", rm.name(),
             "disk used " + std::to_string(disk.used().count()) + " != sum of contents " +
                 std::to_string(content));
    }
  }
}

void InvariantAuditor::check_time_monotonicity(std::vector<Violation>& out) {
  const dfs::Cluster& c = cluster_;
  const SimTime now = c.simulator().now();
  if (now < last_audit_time_) {
    report(out, "time-monotonicity", "", "simulator",
           "now " + now.to_string() + " ran backwards from " + last_audit_time_.to_string());
  }
  const SimTime next = c.simulator().next_event_time();
  if (next < now) {
    report(out, "time-monotonicity", "", "simulator",
           "pending event at " + next.to_string() + " is before now " + now.to_string());
  }
  last_audit_time_ = now;
}

void InvariantAuditor::check_tenant_conservation(std::vector<Violation>& out) {
  // Per-tenant allocated bandwidth on each RM must sum to exactly what the
  // ledger records for that RM: every allocated byte/s belongs to exactly
  // one tenant (tenant 0 doubles as "untenanted", so the check degenerates
  // to flow-allocation-agreement on clusters without tenants).
  const dfs::Cluster& c = cluster_;
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    std::map<std::uint32_t, double> by_tenant;  // ordered: deterministic report order
    for (const storage::Flow& f : rm.throttle_group().flows().active()) {
      by_tenant[f.tenant] += f.rate.bps();
    }
    double tenant_sum = 0.0;
    for (const auto& [tenant, rate] : by_tenant) {
      if (rate < 0.0) {
        report(out, "tenant-conservation", "ROADMAP item 3", rm.name(),
               "tenant " + std::to_string(tenant) + " holds negative bandwidth " + num(rate) +
                   " B/s");
      }
      tenant_sum += rate;
    }
    const double ledger = rm.ledger().current_allocation().bps();
    if (!close(tenant_sum, ledger, 1e-9)) {
      report(out, "tenant-conservation", "ROADMAP item 3", rm.name(),
             "per-tenant allocation sum " + num(tenant_sum) + " B/s != ledger allocation " +
                 num(ledger) + " B/s");
    }
  }
}

void InvariantAuditor::check_stripe_conservation(std::vector<Violation>& out) {
  // EC stripe metadata stays structurally sound after every event: the MM
  // entry keeps its k + m shape, the cached `degraded` flag never disagrees
  // with the holder table it summarizes, and no shard is ever listed on more
  // holders than one steady copy plus one add-before-remove migration copy.
  const dfs::Cluster& c = cluster_;
  c.mm().for_each_stripe([&](dfs::FileId base, const dfs::MetadataManager::StripeInfo& stripe) {
    const std::string subject = "stripe " + std::to_string(base);
    const std::size_t expected = static_cast<std::size_t>(stripe.k) + stripe.m;
    if (stripe.k == 0 || stripe.shards.size() != expected) {
      report(out, "stripe-conservation", "ROADMAP item 4", subject,
             "malformed shape: EC(" + std::to_string(stripe.k) + "," + std::to_string(stripe.m) +
                 ") with " + std::to_string(stripe.shards.size()) + " shard slots");
      return;
    }
    const bool derived = stripe.live_shards() < stripe.shards.size();
    if (stripe.degraded != derived) {
      report(out, "stripe-conservation", "ROADMAP item 4", subject,
             std::string("degraded flag ") + (stripe.degraded ? "set" : "clear") +
                 " disagrees with holder table (" + std::to_string(stripe.live_shards()) + " of " +
                 std::to_string(stripe.shards.size()) + " shards live)");
    }
    for (std::size_t s = 0; s < stripe.shards.size(); ++s) {
      if (stripe.shards[s].size() > 2) {
        report(out, "stripe-conservation", "ROADMAP item 4", subject,
               "shard " + std::to_string(s) + " listed on " +
                   std::to_string(stripe.shards[s].size()) +
                   " holders (max 1 steady + 1 mid-migration)");
      }
    }
  });
}

void InvariantAuditor::check_rebalance_conservation(std::vector<Violation>& out) {
  // Rebalance moves shards add-before-remove, so after every event each
  // MM-listed shard holder must actually store the shard bytes, every shard
  // with a registered holder exists on at least one disk (no data loss), and
  // no shard occupies more than two disks (steady copy + in-flight copy).
  // Disk contents survive crashes, so every direction holds for offline RMs.
  const dfs::Cluster& c = cluster_;
  std::unordered_map<std::uint32_t, std::size_t> by_node;
  for (std::size_t i = 0; i < c.rm_count(); ++i) by_node.emplace(c.rm(i).node_id().value(), i);
  c.mm().for_each_stripe([&](dfs::FileId base, const dfs::MetadataManager::StripeInfo& stripe) {
    for (std::size_t s = 0; s < stripe.shards.size(); ++s) {
      const dfs::FileId key = storage::shard_key::pack(base, s, stripe.k, stripe.m);
      const std::string subject =
          "stripe " + std::to_string(base) + " shard " + std::to_string(s);
      std::size_t disks = 0;
      for (std::size_t i = 0; i < c.rm_count(); ++i) {
        if (c.rm(i).disk().contains(key)) ++disks;
      }
      if (disks > 2) {
        report(out, "rebalance-conservation", "ROADMAP item 4", subject,
               "shard bytes on " + std::to_string(disks) +
                   " disks (max 1 steady + 1 mid-migration copy)");
      }
      if (disks == 0 && !stripe.shards[s].empty()) {
        report(out, "rebalance-conservation", "ROADMAP item 4", subject,
               "MM lists " + std::to_string(stripe.shards[s].size()) +
                   " holder(s) but no disk stores the shard bytes (data loss)");
      }
      // Holder -> disk, tolerating exactly one stale listing: the migration
      // commit deletes the source's disk copy before its ReplicaDeleteMsg
      // reaches the MM, so one listed-but-diskless holder is a legal
      // in-flight state — two are not, and neither is a shard whose listed
      // holders all lack the bytes.
      std::size_t backed = 0;
      for (const net::NodeId holder : stripe.shards[s]) {
        const auto it = by_node.find(holder.value());
        if (it == by_node.end()) {
          report(out, "rebalance-conservation", "ROADMAP item 4", subject,
                 "MM lists unknown holder node " + std::to_string(holder.value()));
          continue;
        }
        if (c.rm(it->second).disk().contains(key)) ++backed;
      }
      const std::size_t stale = stripe.shards[s].size() - backed;
      if (!stripe.shards[s].empty() && backed == 0) {
        report(out, "rebalance-conservation", "ROADMAP item 4", subject,
               "no listed holder stores the shard bytes");
      } else if (stale > 1) {
        report(out, "rebalance-conservation", "ROADMAP item 4", subject,
               std::to_string(stale) + " listed holders lack the shard bytes (max 1 in-flight "
               "delete)");
      }
    }
  });
}

void InvariantAuditor::check_mm_disk_agreement(std::vector<Violation>& out) {
  const dfs::Cluster& c = cluster_;
  std::unordered_map<std::uint32_t, std::size_t> by_node;
  for (std::size_t i = 0; i < c.rm_count(); ++i) by_node.emplace(c.rm(i).node_id().value(), i);

  // MM -> disk: every listed replica exists on that RM's disk (disk contents
  // survive crashes, so this direction holds for offline RMs too).
  for (const dfs::FileId file : c.mm().known_files()) {
    for (const net::NodeId holder : c.mm().holders_of(file)) {
      const auto it = by_node.find(holder.value());
      if (it == by_node.end()) {
        report(out, "mm-disk-agreement", "§III.A", "file " + std::to_string(file),
               "MM lists unknown holder node " + std::to_string(holder.value()));
        continue;
      }
      const dfs::ResourceManager& rm = c.rm(it->second);
      if (!rm.has_replica(file)) {
        report(out, "mm-disk-agreement", "§III.A", rm.name(),
               "MM lists a replica of file " + std::to_string(file) + " the disk lacks");
      }
    }
  }
  // Disk -> MM: every durable replica on an online RM is listed (a crashed
  // RM's disk is reconciled by the recovery re-registration).
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    if (!rm.is_online()) continue;
    for (const std::uint64_t file : rm.disk().file_keys()) {
      bool listed = false;
      for (const net::NodeId holder : c.mm().holders_of(file)) {
        if (holder == rm.node_id()) listed = true;
      }
      if (!listed) {
        report(out, "mm-disk-agreement", "§III.A", rm.name(),
               "disk holds file " + std::to_string(file) + " the MM does not list");
      }
    }
  }
}

void InvariantAuditor::check_no_residual_state(std::vector<Violation>& out) {
  const dfs::Cluster& c = cluster_;
  if (c.replication().migrations_in_flight() != 0) {
    report(out, "no-residual-state", "ROADMAP item 4", "replication-agent",
           std::to_string(c.replication().migrations_in_flight()) +
               " migrations still in flight");
  }
  for (std::size_t i = 0; i < c.rm_count(); ++i) {
    const dfs::ResourceManager& rm = c.rm(i);
    if (rm.allocated().bps() != 0.0) {
      report(out, "no-residual-state", "§III.B", rm.name(),
             "stream allocation " + num(rm.allocated().bps()) + " B/s at quiescence");
    }
    if (rm.replication_lane_rate().bps() != 0.0) {
      report(out, "no-residual-state", "§V", rm.name(),
             "replication-lane traffic " + num(rm.replication_lane_rate().bps()) +
                 " B/s at quiescence");
    }
    if (rm.trigger().is_source() || rm.trigger().is_destination()) {
      report(out, "no-residual-state", "§V", rm.name(), "stuck in a replication role");
    }
    if (rm.session_count() != 0) {
      report(out, "no-residual-state", "§III.B", rm.name(),
             std::to_string(rm.session_count()) + " explicit sessions still open");
    }
    if (rm.pending_write_count() != 0 || rm.pending_incoming_count() != 0) {
      report(out, "no-residual-state", "§III.B", rm.name(),
             std::to_string(rm.pending_write_count()) + " pending writes, " +
                 std::to_string(rm.pending_incoming_count()) + " pending incoming copies");
    }
  }
}

std::vector<Violation> InvariantAuditor::audit_now() {
  ++audits_;
  std::vector<Violation> found;
  check_flow_allocation_agreement(found);
  check_firm_cap(found);
  check_ledger_conservation(found);
  check_non_negative_resources(found);
  check_time_monotonicity(found);
  check_tenant_conservation(found);
  check_stripe_conservation(found);
  check_rebalance_conservation(found);
  for (const CustomInvariant& inv : custom_) {
    inv.check(cluster_, [this, &inv, &found](std::string subject, std::string detail) {
      report(found, inv.name, inv.paper_ref, std::move(subject), std::move(detail));
    });
  }
  for (const Violation& v : found) {
    if (violations_.size() < options_.max_violations) {
      violations_.push_back(v);
    } else {
      ++suppressed_;
    }
  }
  return found;
}

std::vector<Violation> InvariantAuditor::audit_quiescent() {
  std::vector<Violation> found = audit_now();
  std::vector<Violation> extra;
  check_mm_disk_agreement(extra);
  check_no_residual_state(extra);
  for (const Violation& v : extra) {
    if (violations_.size() < options_.max_violations) {
      violations_.push_back(v);
    } else {
      ++suppressed_;
    }
    found.push_back(v);
  }
  return found;
}

void InvariantAuditor::install(std::uint64_t every_n_events) {
  every_n_ = every_n_events == 0 ? 1 : every_n_events;
  hook_events_ = 0;
  cluster_.simulator().set_post_event_hook([this] {
    if (++hook_events_ % every_n_ == 0) (void)audit_now();
  });
  installed_ = true;
}

void InvariantAuditor::uninstall() {
  if (!installed_) return;
  cluster_.simulator().set_post_event_hook({});
  installed_ = false;
}

void InvariantAuditor::clear() {
  violations_.clear();
  suppressed_ = 0;
  audits_ = 0;
  ledger_prev_.assign(cluster_.rm_count(), LedgerSnapshot{});
  last_audit_time_ = cluster_.simulator().now();
}

}  // namespace sqos::check
