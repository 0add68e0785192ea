#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sqos::net {

namespace {
// Typical cluster sizes fit comfortably; pre-sizing keeps registration from
// re-copying the (large) per-node stat blocks as the topology grows.
constexpr std::size_t kExpectedNodes = 64;
}  // namespace

NodeId Network::register_node(std::string name) {
  if (names_.empty()) {
    names_.reserve(kExpectedNodes);
    sent_.reserve(kExpectedNodes);
    received_.reserve(kExpectedNodes);
  }
  const NodeId id{static_cast<std::uint32_t>(names_.size())};
  names_.push_back(std::move(name));
  sent_.emplace_back();
  received_.emplace_back();
  return id;
}

std::uint64_t Network::link_key(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (hi << 32) | lo;
}

void Network::set_link_down(NodeId a, NodeId b) { down_links_.insert(link_key(a, b)); }

void Network::set_link_up(NodeId a, NodeId b) { down_links_.erase(link_key(a, b)); }

bool Network::link_up(NodeId a, NodeId b) const { return !down_links_.contains(link_key(a, b)); }

void Network::fold_pending() const {
  for (const LogRecord& r : sent_log_) {
    account(sent_[r.node], static_cast<MessageKind>(r.kind),
            Bytes::of(static_cast<std::int64_t>(r.bytes)));
  }
  sent_log_.clear();
  for (const LogRecord& r : received_log_) {
    account(received_[r.node], static_cast<MessageKind>(r.kind),
            Bytes::of(static_cast<std::int64_t>(r.bytes)));
  }
  received_log_.clear();
}

const TrafficStats& Network::node_sent(NodeId id) const {
  assert(id.value() < sent_.size());
  fold_pending();
  return sent_[id.value()];
}

const TrafficStats& Network::node_received(NodeId id) const {
  assert(id.value() < received_.size());
  fold_pending();
  return received_[id.value()];
}

const std::string& Network::node_name(NodeId id) const {
  assert(id.value() < names_.size());
  return names_[id.value()];
}

void Network::reset_stats() {
  stats_ = TrafficStats{};
  sent_log_.clear();
  received_log_.clear();
  for (auto& s : sent_) s = TrafficStats{};
  for (auto& s : received_) s = TrafficStats{};
}

}  // namespace sqos::net
