// Occupation-time statistics — inputs to the γ-factor of the bid (§IV).
//
// T_ocp is the occupation time of accessing a requested file (how long the
// transfer holds its bandwidth); T_ocp_avg is the RM's total occupation time
// divided by the number of files located on it. The occupation bias ratio
// e^(−T_ocp_avg / T_ocp) ∈ (0, 1) scales the requested bandwidth B_req:
// requests for files that occupy the RM much longer than its average are
// penalized more.
#pragma once

#include <cstddef>

#include "util/sim_time.hpp"

namespace sqos::core {

class OccupationTracker {
 public:
  /// A file replica with occupation time `t_ocp` was placed on this RM.
  void add_file(SimTime t_ocp);

  /// The replica was removed (dynamic-replication delete).
  void remove_file(SimTime t_ocp);

  [[nodiscard]] std::size_t file_count() const { return count_; }

  /// T_ocp_avg; zero when the RM holds no files.
  [[nodiscard]] SimTime average() const;

  /// The occupation bias ratio e^(−T_ocp_avg / T_ocp) for a request with
  /// occupation time `t_ocp`. Defined as 1 (maximum penalty weight) when
  /// t_ocp is zero-or-negative degenerate input, and e^0 = 1 when the RM is
  /// empty — both edge conventions keep the factor within (0, 1].
  [[nodiscard]] double bias(SimTime t_ocp) const;

 private:
  double total_seconds_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace sqos::core
