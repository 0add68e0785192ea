// The "when to replicate" decision (§V).
//
// Replication triggers when a DFSC access request reaches an RM whose
// remaining bandwidth dropped below B_TH, provided the RM (1) is not
// currently a replication source, (2) is not currently a replication
// destination, and (3) has not processed a replication within the cooldown
// (60 s in the paper).
#pragma once

#include "core/replication_config.hpp"
#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace sqos::core {

/// Per-RM replication trigger state machine.
class ReplicationTrigger {
 public:
  explicit ReplicationTrigger(const ReplicationConfig& config) : cfg_{&config} {}

  /// Evaluate the trigger on an access request arriving at `now` with the
  /// RM's current remaining bandwidth and cap.
  [[nodiscard]] bool should_trigger(SimTime now, Bandwidth b_rem, Bandwidth cap) const;

  // Endpoint-role bookkeeping, driven by the replication agent.
  void begin_source(SimTime now);
  void end_source(SimTime now);
  void begin_destination();
  void end_destination();

  [[nodiscard]] bool is_source() const { return source_active_ > 0; }
  [[nodiscard]] bool is_destination() const { return destination_active_ > 0; }
  [[nodiscard]] SimTime last_replication() const { return last_replication_; }

 private:
  const ReplicationConfig* cfg_;
  int source_active_ = 0;
  int destination_active_ = 0;
  bool ever_replicated_ = false;
  SimTime last_replication_;
};

}  // namespace sqos::core
