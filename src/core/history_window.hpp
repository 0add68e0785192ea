// The paper's two-queue historical record (§IV).
//
// Request arrivals are unpredictable, so instead of sampling utilization at a
// fixed rate the RM accumulates per-request records into one of two queues:
// the *recording* queue collects arrivals while the other serves as the
// *historical reference* for trend prediction. The queues exchange roles when
// either (a) the recording queue accumulates the configured sample count, or
// (b) it exceeds the configured expiry age — whichever comes first.
#pragma once

#include <cstddef>

#include "util/sim_time.hpp"
#include "util/units.hpp"

namespace sqos::core {

/// Aggregate view of one completed window, in the paper's notation:
/// T_threshold = t_end - t_start, FS_total the bytes accessed inside it.
struct WindowStats {
  SimTime t_start;
  SimTime t_end;
  Bytes fs_total;
  std::size_t samples = 0;
  bool valid = false;  // false until the first exchange has produced history

  [[nodiscard]] SimTime t_threshold() const { return t_end - t_start; }
};

/// Exchange conditions for the two-queue mechanism.
struct HistoryParams {
  /// Exchange condition (a): accumulated request count.
  std::size_t sample_limit = 32;
  /// Exchange condition (b): recording-queue age.
  SimTime expiry = SimTime::seconds(60.0);
};

class TwoQueueHistory {
 public:
  using Params = HistoryParams;

  explicit TwoQueueHistory(Params params = {}) : params_{params} {}

  /// Record one request arrival accessing `accessed` bytes.
  void record(SimTime now, Bytes accessed);

  /// Apply the time-based exchange condition without recording. Called
  /// implicitly by record() and reference().
  void maybe_exchange(SimTime now);

  /// The historical-reference window for trend prediction at time `now`.
  /// `valid == false` until at least one exchange happened.
  [[nodiscard]] WindowStats reference(SimTime now);

  /// The currently recording (incomplete) window, for inspection.
  [[nodiscard]] const WindowStats& recording() const { return rec_; }

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] std::size_t exchanges() const { return exchanges_; }

 private:
  void exchange(SimTime now);

  Params params_;
  WindowStats rec_;   // recording queue (t_start set on first record)
  WindowStats ref_;   // historical reference
  bool rec_open_ = false;
  std::size_t exchanges_ = 0;
};

}  // namespace sqos::core
