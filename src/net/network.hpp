// Simulated control-plane fabric.
//
// Components register a NodeId; messages are delivered as simulator events
// after a sampled latency, carrying their typed payload in the delivery
// closure. The network keeps complete per-kind and per-node traffic
// statistics — the measurement substrate for the ECNP-vs-CNP ablation.
//
// send() is on the hot path of every negotiation round: the delivery closure
// is move-only (it rides the kernel's InlineFn small-buffer storage, so a
// payload capture of up to 48 bytes costs no allocation), per-node stats
// live in flat vectors indexed by NodeId and are updated in batches, and the
// partition check short-circuits when no link is down (the overwhelmingly
// common case).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/latency_model.hpp"
#include "net/message.hpp"
#include "net/node_id.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace sqos::net {

struct TrafficStats {
  std::array<std::uint64_t, kMessageKindCount> count_by_kind{};
  std::array<std::uint64_t, kMessageKindCount> bytes_by_kind{};
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t dropped_messages = 0;  // lost on partitioned links

  [[nodiscard]] std::uint64_t count(MessageKind k) const {
    return count_by_kind[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t bytes(MessageKind k) const {
    return bytes_by_kind[static_cast<std::size_t>(k)];
  }
};

class Network {
 public:
  /// Sends whose per-node accounting is logged before it is folded into the
  /// per-node tables (32 B of log per send: 128 KiB at most).
  static constexpr std::size_t kStatLogBatch = 4096;

  Network(sim::Simulator& simulator, LatencyModel latency)
      : sim_{simulator}, latency_{std::move(latency)} {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register an endpoint; `name` is for diagnostics only.
  [[nodiscard]] NodeId register_node(std::string name);

  /// Send a control message. `on_deliver` runs at the receiver after the
  /// sampled latency; it typically captures the typed payload and calls the
  /// receiving component's handler. Messages on a partitioned link are
  /// silently dropped (still accounted as sent — the sender did the work).
  void send(NodeId from, NodeId to, MessageKind kind, Bytes size, sim::EventFn on_deliver) {
    assert(from.value() < names_.size());
    assert(to.value() < names_.size());
    account(stats_, kind, size);
    // Per-node accounting is batched: at 10^5 nodes the sender/receiver
    // stat blocks are two random cache misses per send, so the hot path
    // appends to a sequential log instead, and the blocks are updated in one
    // pass (fold_pending) when the log holds kStatLogBatch records or
    // somebody reads them. The folded values are sums, so the result is
    // identical to eager updates, and the logs stay bounded however long
    // the run.
    if (sent_log_.size() == kStatLogBatch) fold_pending();
    sent_log_.push_back(LogRecord{from.value(), static_cast<std::uint32_t>(kind),
                                  static_cast<std::uint64_t>(size.count())});
    if (!down_links_.empty() && !link_up(from, to)) {
      ++stats_.dropped_messages;
      return;  // lost on the partition; the sender learns via its timeout
    }
    received_log_.push_back(LogRecord{to.value(), static_cast<std::uint32_t>(kind),
                                      static_cast<std::uint64_t>(size.count())});
    sim_.schedule_after(latency_.sample(size), std::move(on_deliver));
  }

  /// Fault injection: cut or restore the (bidirectional) link between two
  /// endpoints. Messages crossing a cut link are lost without notification —
  /// senders discover the partition only through their own timeouts.
  void set_link_down(NodeId a, NodeId b);
  void set_link_up(NodeId a, NodeId b);
  [[nodiscard]] bool link_up(NodeId a, NodeId b) const;

  [[nodiscard]] const TrafficStats& stats() const { return stats_; }
  [[nodiscard]] const TrafficStats& node_sent(NodeId id) const;
  [[nodiscard]] const TrafficStats& node_received(NodeId id) const;
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return names_.size(); }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Reset traffic counters (topology is kept). Used between warm-up and the
  /// measured phase of an experiment.
  void reset_stats();

 private:
  static void account(TrafficStats& s, MessageKind kind, Bytes size) {
    const auto k = static_cast<std::size_t>(kind);
    assert(k < kMessageKindCount);
    ++s.count_by_kind[k];
    s.bytes_by_kind[k] += static_cast<std::uint64_t>(size.count());
    ++s.total_messages;
    s.total_bytes += static_cast<std::uint64_t>(size.count());
  }

  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b);

  struct LogRecord {
    std::uint32_t node;
    std::uint32_t kind;
    std::uint64_t bytes;
  };

  /// Apply every pending log record to the per-node stat tables and clear
  /// the logs. Values are order-independent sums, so folding in batches
  /// (send) or on a read yields exactly the eager result.
  void fold_pending() const;

  sim::Simulator& sim_;
  LatencyModel latency_;
  TrafficStats stats_;
  std::vector<std::string> names_;
  mutable std::vector<TrafficStats> sent_;
  mutable std::vector<TrafficStats> received_;
  mutable std::vector<LogRecord> sent_log_;
  mutable std::vector<LogRecord> received_log_;
  std::unordered_set<std::uint64_t> down_links_;
};

}  // namespace sqos::net
