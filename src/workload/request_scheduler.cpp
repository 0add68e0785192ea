#include "workload/request_scheduler.hpp"

#include <algorithm>

namespace sqos::workload {

void RequestScheduler::schedule(SimTime start) {
  // A series needs nondecreasing times. Generated patterns are sorted (and
  // skip the sort's n-element buffer); loaded traces need not be. A stable
  // sort keeps equal times in pattern order, which is the (time, index)
  // order of one schedule_at per event.
  const auto earlier = [](const AccessEvent& a, const AccessEvent& b) { return a.time < b.time; };
  if (!std::is_sorted(pattern_.begin(), pattern_.end(), earlier)) {
    std::stable_sort(pattern_.begin(), pattern_.end(), earlier);
  }
  cluster_.simulator().schedule_series(
      pattern_.size(), [this, start](std::size_t i) { return start + pattern_[i].time; },
      [this](std::size_t i) { dispatch(pattern_[i]); });
}

void RequestScheduler::dispatch(const AccessEvent& event) {
  const std::size_t clients = cluster_.client_count();
  const std::size_t client_index =
      user_map_ ? user_map_(event.user) % clients : event.user % clients;
  ++dispatched_;
  cluster_.client(client_index).stream_file(event.file, [this](const Status& s) {
    if (s.is_ok()) {
      ++completed_;
    } else {
      ++failed_;
    }
  });
}

}  // namespace sqos::workload
