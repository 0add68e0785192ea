#include "stats/rm_monitor.hpp"

#include <cassert>

namespace sqos::stats {

void RmMonitor::start(SimTime until) {
  sim::Simulator& sim = cluster_.simulator();
  assert(interval_ > SimTime::zero());
  const sim::Periodic samples{sim.now(), interval_};
  sim.schedule_series(samples.count_through(until), samples,
                      [this](std::size_t) { sample_once(); });
}

void RmMonitor::sample_once() {
  Sample s;
  s.time = cluster_.simulator().now();
  s.allocated_bps.reserve(cluster_.rm_count());
  for (std::size_t i = 0; i < cluster_.rm_count(); ++i) {
    s.allocated_bps.push_back(cluster_.rm(i).allocated().bps());
  }
  samples_.push_back(std::move(s));
}

std::vector<double> RmMonitor::series(std::size_t rm_index) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.allocated_bps.at(rm_index));
  return out;
}

std::vector<double> RmMonitor::aggregated_series(
    const std::vector<std::size_t>& rm_indices) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    double total = 0.0;
    for (const std::size_t i : rm_indices) total += s.allocated_bps.at(i);
    out.push_back(total);
  }
  return out;
}

}  // namespace sqos::stats
