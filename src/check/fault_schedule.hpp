// FaultSchedule — declarative fault plans for chaos runs.
//
// A schedule is a list of timed fault actions (RM crash/restart, network
// partition windows between any two endpoints, slow-disk throttle windows)
// built either explicitly by a test or randomly from a seeded Rng stream.
// install() turns the plan into guarded simulator events against a live
// Cluster, so the same schedule replays bit-for-bit on the same seed and
// composes with the OpFuzzer's operation stream.
//
// Every random window heals before the horizon: crashed RMs restart, cut
// links come back, throttled disks are restored. That keeps the quiescent
// invariant audit meaningful — after the drain, a healthy cluster must have
// converged back to a consistent state.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dfs/cluster.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace sqos::check {

/// One timed fault. Partition endpoints use a combined index space over the
/// cluster: [0, rm_count) are RMs, then clients, then MM shards.
struct FaultAction {
  enum class Kind {
    kCrashRm,
    kRecoverRm,
    kLinkDown,
    kLinkUp,
    kThrottleDisk,
    kRestoreDisk,
  };

  Kind kind = Kind::kCrashRm;
  SimTime at;                 // delay from install() time
  std::size_t rm = 0;         // crash/recover/throttle target (RM index)
  std::size_t endpoint_a = 0; // partition endpoints (combined index space)
  std::size_t endpoint_b = 0;
  double factor = 1.0;        // slow-disk cap multiplier in (0, 1]

  [[nodiscard]] std::string to_string() const;
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  // --- explicit builders (times are delays from install) ---------------------

  /// RM `rm` crashes at `from` and reboots at `until`.
  FaultSchedule& crash_window(std::size_t rm, SimTime from, SimTime until);

  /// The link between combined endpoints `a` and `b` is cut during
  /// [from, until); messages crossing it are silently lost.
  FaultSchedule& partition_window(std::size_t a, std::size_t b, SimTime from, SimTime until);

  /// RM `rm` runs with its blkio cap multiplied by `factor` during
  /// [from, until) — a degraded spindle, not a crash.
  FaultSchedule& slow_disk_window(std::size_t rm, double factor, SimTime from, SimTime until);

  // --- random generation ------------------------------------------------------

  /// Draw a schedule from `rng`: a few crash, partition and slow-disk
  /// windows spread over [0, horizon), every one healed strictly before
  /// `horizon`. Deterministic for a given Rng state.
  [[nodiscard]] static FaultSchedule random(Rng& rng, std::size_t rm_count,
                                            std::size_t client_count, std::size_t mm_shards,
                                            SimTime horizon);

  // --- execution --------------------------------------------------------------

  /// Schedule every action on the cluster's simulator, relative to now().
  /// Actions are guarded (crash only an online RM, recover only an offline
  /// one) so a schedule stays valid when operations around it change —
  /// which is what makes fuzzer schedule minimization sound.
  void install(dfs::Cluster& cluster) const;

  /// True when any action shrinks a dispatched cap mid-run; the firm-cap
  /// invariant must then be relaxed (see InvariantAuditor::Options).
  [[nodiscard]] bool perturbs_caps() const;

  [[nodiscard]] const std::vector<FaultAction>& actions() const { return actions_; }
  [[nodiscard]] bool empty() const { return actions_.empty(); }
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultAction> actions_;
};

}  // namespace sqos::check
