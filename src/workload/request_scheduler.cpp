#include "workload/request_scheduler.hpp"

namespace sqos::workload {

void RequestScheduler::schedule(SimTime start) {
  sim::Simulator& sim = cluster_.simulator();
  const std::size_t clients = cluster_.client_count();
  for (const AccessEvent& event : pattern_) {
    const std::size_t client_index = user_map_ ? user_map_(event.user) % clients
                                               : event.user % clients;
    sim.schedule_at(start + event.time, [this, client_index, file = event.file] {
      ++dispatched_;
      cluster_.client(client_index).stream_file(file, [this](const Status& s) {
        if (s.is_ok()) {
          ++completed_;
        } else {
          ++failed_;
        }
      });
    });
  }
}

}  // namespace sqos::workload
