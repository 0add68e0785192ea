// InvariantAuditor — machine-checked conservation laws over a live Cluster.
//
// The auditor holds a catalog of cluster-wide invariant predicates and
// evaluates them on demand or automatically after every Nth simulator event
// (via Simulator's post-event hook). Two audit phases exist:
//
//   continuous — laws that hold after *every* event, mid-protocol included:
//     flow-allocation-agreement   per-RM flow-sum == recorded allocation ==
//                                 ledger allocation (§III.A measurement duty)
//     firm-cap                    firm-mode allocation never exceeds the
//                                 dispatched cap, S_OA stays 0 (§VI.A.1)
//     ledger-conservation         assigned == delivered + overallocated and
//                                 all three integrals are monotone (Fig. 4)
//     non-negative-resources      no negative remaining bandwidth or disk
//                                 space; disk usage matches its contents
//     time-monotonicity           simulated time never runs backwards and no
//                                 pending event is in the past
//     stripe-conservation         every MM stripe keeps its EC(k, m) shape,
//                                 the degraded flag agrees with the shard
//                                 holder table, and no shard is listed on
//                                 more than 1 + 1 mid-migration holders
//     rebalance-conservation      every MM-listed shard holder stores the
//                                 shard bytes on disk, a listed shard exists
//                                 on >= 1 disk, and on <= 2 disks
//                                 (steady copy + one in-flight migration)
//
//   quiescent — additional laws that only hold when no protocol work is in
//   flight (end of a drained run):
//     mm-disk-agreement           MM directory <-> RM DiskStore replica maps
//                                 agree bidirectionally (§III.A)
//     no-residual-state           no leaked allocations, sessions, pending
//                                 transfers, stuck replication roles or
//                                 in-flight rebalance migrations
//
// Custom invariants can be registered next to the built-in catalog; they run
// in every continuous audit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "dfs/cluster.hpp"

namespace sqos::check {

class InvariantAuditor {
 public:
  struct Options {
    /// Enforce the firm no-over-allocation law. Only valid while every
    /// client negotiates in firm mode and no fault shrinks a dispatched cap
    /// mid-run (a cap shrink legitimately strands admitted allocation above
    /// the new cap — that *is* the R_OA the paper measures).
    bool expect_firm_cap = false;

    /// Stop recording (but keep counting) violations beyond this many.
    std::size_t max_violations = 64;
  };

  /// Reports a violation of a custom invariant: (subject, detail).
  using ReportFn = std::function<void(std::string, std::string)>;
  using CheckFn = std::function<void(const dfs::Cluster&, const ReportFn&)>;

  /// The auditor only observes the cluster; the non-const reference is
  /// needed solely to install the post-event hook on its simulator.
  explicit InvariantAuditor(dfs::Cluster& cluster) : InvariantAuditor(cluster, Options{}) {}
  InvariantAuditor(dfs::Cluster& cluster, Options options);
  ~InvariantAuditor();

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Register an additional invariant evaluated in every continuous audit.
  void register_invariant(std::string name, std::string paper_ref, CheckFn check);

  /// Run the continuous catalog now; returns the violations found by this
  /// audit (also appended to violations()).
  std::vector<Violation> audit_now();

  /// Run the continuous catalog plus the quiescence-only laws.
  std::vector<Violation> audit_quiescent();

  /// Install the post-event hook: a continuous audit after every
  /// `every_n_events` executed simulator events.
  void install(std::uint64_t every_n_events = 1);
  void uninstall();

  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  [[nodiscard]] std::uint64_t audits_run() const { return audits_; }
  [[nodiscard]] std::uint64_t violations_suppressed() const { return suppressed_; }
  void clear();

  void set_expect_firm_cap(bool expect) { options_.expect_firm_cap = expect; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct LedgerSnapshot {
    double assigned = 0.0;
    double delivered = 0.0;
    double overallocated = 0.0;
  };

  struct CustomInvariant {
    std::string name;
    std::string paper_ref;
    CheckFn check;
  };

  void report(std::vector<Violation>& out, std::string invariant, std::string paper_ref,
              std::string subject, std::string detail);

  // Continuous catalog.
  void check_flow_allocation_agreement(std::vector<Violation>& out);
  void check_firm_cap(std::vector<Violation>& out);
  void check_ledger_conservation(std::vector<Violation>& out);
  void check_non_negative_resources(std::vector<Violation>& out);
  void check_time_monotonicity(std::vector<Violation>& out);
  void check_tenant_conservation(std::vector<Violation>& out);
  void check_stripe_conservation(std::vector<Violation>& out);
  void check_rebalance_conservation(std::vector<Violation>& out);

  // Quiescent catalog.
  void check_mm_disk_agreement(std::vector<Violation>& out);
  void check_no_residual_state(std::vector<Violation>& out);

  dfs::Cluster& cluster_;
  Options options_;
  std::vector<CustomInvariant> custom_;
  std::vector<Violation> violations_;
  std::vector<LedgerSnapshot> ledger_prev_;  // per-RM monotonicity baseline
  SimTime last_audit_time_ = SimTime::zero();
  std::uint64_t audits_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t hook_events_ = 0;
  std::uint64_t every_n_ = 1;
  bool installed_ = false;
};

}  // namespace sqos::check
