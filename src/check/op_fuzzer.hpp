// OpFuzzer — seeded random-operation driver with replay and minimization.
//
// One seed fully determines a chaos run: the generated file catalog, the
// cluster topology, the operation schedule (streams, explicit open/close
// sessions, replicated writes, replica placement/deletion, allocation-mode
// flips), and — when enabled — a random FaultSchedule. The run executes
// against a freshly built Cluster with an InvariantAuditor installed after
// every Nth simulator event, so the discrete-event kernel's determinism makes
// every failure bit-for-bit reproducible from the `--seed=` line alone.
//
// On violation the fuzzer can greedily minimize the operation schedule
// (ddmin-style chunk removal, re-executing each candidate) down to a small
// set of operations that still reproduces the same broken invariant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_schedule.hpp"
#include "check/invariant.hpp"
#include "core/qos_types.hpp"
#include "dfs/cluster.hpp"
#include "storage/stripe_layout.hpp"
#include "util/sim_time.hpp"

namespace sqos::check {

/// One fuzzed operation. `delay` is relative to the previous operation; the
/// remaining fields are interpreted per kind (see to_string()).
struct FuzzOp {
  enum class Kind : std::uint8_t {
    kStream,         // client streams catalog file `file` end to end
    kOpenClose,      // explicit session on `file`, released after `arg` ms
    kWriteFile,      // register fresh file `file` and write `1 + arg % 2` copies
    kPlaceReplica,   // bootstrap-place `file` on RM `arg`
    kDeleteReplica,  // MM-arbitrated replica delete of `file` on RM `arg`
    kModeFlip,       // client flips allocation mode (arg: 0 firm, 1 soft)
    kPause,          // no operation — just let the cluster run
    kDrain,          // rebalance agent drains RM `arg` (EC layouts only)
  };

  Kind kind = Kind::kPause;
  SimTime delay;          // inter-operation gap
  std::size_t actor = 0;  // issuing client index
  std::uint64_t file = 0;
  std::uint64_t arg = 0;

  [[nodiscard]] std::string to_string() const;
};

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t op_count = 400;
  std::uint64_t audit_every = 1;  // continuous audit after every Nth event

  // Topology of the freshly built cluster (deterministic from the seed).
  std::size_t machine_count = 2;
  std::size_t rm_count = 4;
  std::size_t client_count = 2;
  std::size_t mm_shards = 2;
  std::size_t file_count = 12;

  core::AllocationMode mode = core::AllocationMode::kFirm;

  /// Storage layout. Replication — the default and every historical seed —
  /// replays byte-identically. An EC policy stripes the catalog as k + m
  /// shards per file, routes streams through the degraded-read path, and
  /// substitutes replica placement ops with rebalance drains (the stripe /
  /// rebalance conservation invariants audit the result). Requires
  /// k + m <= rm_count.
  storage::LayoutPolicy layout;

  /// Mixed-tenant population: split the clients into this many contiguous
  /// tenants with deterministic staggered SLOs and run the AIMD controller
  /// for the whole schedule. 0 (the default, and every historical seed)
  /// builds the untenanted cluster — byte-identical replays.
  std::size_t tenant_count = 0;

  bool with_faults = false;  // compose a random FaultSchedule
  bool minimize = true;      // shrink the schedule after a violation
  std::size_t max_minimize_runs = 160;

  /// Deliberate bug injection for harness self-tests: every RM skips the
  /// final firm-mode admission check, so racing negotiations over-allocate.
  bool inject_overallocation_bug = false;

  /// When non-empty, the full run records a Chrome trace-event capture and
  /// writes it here if an invariant breaks (minimization re-runs are never
  /// traced). Recording adds no simulator events, so executed_events and
  /// the violations are identical with tracing on or off.
  std::string trace_path;
};

struct [[nodiscard]] FuzzResult {
  std::uint64_t seed = 0;
  FuzzOptions options;
  std::vector<FuzzOp> schedule;
  FaultSchedule faults;
  std::vector<Violation> violations;  // from the full run
  std::vector<FuzzOp> minimized;      // still reproduces violations[0].invariant
  std::uint64_t executed_events = 0;
  std::uint64_t minimize_runs = 0;
  std::string trace_path;  // failure-repro trace file, when one was written

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// Command-line fragment that reproduces this exact run with sqos_fuzz.
  [[nodiscard]] std::string repro_line() const;

  /// Human-readable run summary: verdict, violations, repro line and the
  /// minimized schedule when one was computed.
  [[nodiscard]] std::string report() const;
};

class OpFuzzer {
 public:
  explicit OpFuzzer(FuzzOptions options) : options_{options} {}

  /// Generate, execute, and (on violation) minimize. Pure function of the
  /// options: the same seed always yields the same schedule, the same
  /// violations, and the same minimized schedule.
  [[nodiscard]] FuzzResult run();

  /// The seeded operation schedule alone (no execution).
  [[nodiscard]] std::vector<FuzzOp> generate() const;

  [[nodiscard]] static std::string schedule_to_string(const std::vector<FuzzOp>& ops);

  [[nodiscard]] const FuzzOptions& options() const { return options_; }

 private:
  struct RunOutcome {
    std::vector<Violation> violations;
    std::uint64_t executed_events = 0;
    std::string trace_json;  // populated only when the run captured a trace
  };

  /// Whether the firm no-over-allocation law applies to this run (firm base
  /// mode, no soft flips in the schedule, no cap-shrinking faults).
  [[nodiscard]] bool expect_firm_cap(const std::vector<FuzzOp>& ops,
                                     const FaultSchedule& faults) const;

  /// Build a fresh cluster from the seed and replay `ops` against it with
  /// the auditor installed; returns the violations the run produced. With
  /// `capture_trace` the span/instant record of the run rides along in the
  /// outcome as Chrome trace-event JSON.
  [[nodiscard]] RunOutcome execute(const std::vector<FuzzOp>& ops, const FaultSchedule& faults,
                                   bool expect_firm, bool capture_trace) const;

  void apply(dfs::Cluster& cluster, const FuzzOp& op) const;

  [[nodiscard]] std::vector<FuzzOp> minimize(const std::vector<FuzzOp>& schedule,
                                             const FaultSchedule& faults, bool expect_firm,
                                             const std::string& invariant,
                                             std::uint64_t& runs) const;

  FuzzOptions options_;
};

}  // namespace sqos::check
