// Request scheduler (§VI.A): replays a generated access pattern against the
// cluster, dispatching each user's requests to its DFSC (users are spread
// round-robin over the clients) at the recorded arrival timestamps.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dfs/cluster.hpp"
#include "workload/access_pattern.hpp"

namespace sqos::workload {

class RequestScheduler {
 public:
  RequestScheduler(dfs::Cluster& cluster, std::vector<AccessEvent> pattern)
      : cluster_{cluster}, pattern_{std::move(pattern)} {}

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Schedule every pattern event at `start + event.time` on the cluster's
  /// simulator, as one event series (Simulator::schedule_series): the
  /// arrivals fire as if each had its own schedule_at, in (time, pattern
  /// index) order, but only the next one is held in the queue. The
  /// designated start offset lets the registration protocol settle first
  /// (the paper's scheduler also designates a startup time so all users
  /// launch simultaneously). The scheduler must outlive the run.
  void schedule(SimTime start = SimTime::seconds(1.0));

  /// Override the user -> client routing (default: user % client_count).
  /// Mixed-tenant patterns install a map that keeps each tenant's users on
  /// that tenant's own client range, so requests carry the right tenant id.
  /// Must be set before schedule(); it is called as each request is
  /// dispatched, so it must be a pure function of the user.
  void set_user_map(std::function<std::size_t(std::uint32_t)> map) { user_map_ = std::move(map); }

  [[nodiscard]] std::size_t request_count() const { return pattern_.size(); }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// True once every dispatched request has completed or failed.
  [[nodiscard]] bool drained() const { return dispatched_ == completed_ + failed_; }

  /// Fraction of requests whose firm-mode open failed (the paper's fail
  /// rate); 0 when nothing was dispatched.
  [[nodiscard]] double fail_rate() const {
    return dispatched_ == 0 ? 0.0
                            : static_cast<double>(failed_) / static_cast<double>(dispatched_);
  }

 private:
  /// Open `event.file` on the event's client and count the outcome.
  void dispatch(const AccessEvent& event);

  dfs::Cluster& cluster_;
  std::vector<AccessEvent> pattern_;  // sorted by time once scheduled
  std::function<std::size_t(std::uint32_t)> user_map_;  // null = round-robin
  std::uint64_t dispatched_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace sqos::workload
