#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sqos::net {
namespace {

LatencyModel fixed_latency(SimTime base = SimTime::micros(200)) {
  LatencyModel::Params p;
  p.base = base;
  p.link_rate = Bandwidth::mbps(1000.0);
  p.jitter_mean = SimTime::zero();  // deterministic for the tests
  return LatencyModel{p, Rng{1}};
}

TEST(Network, RegisterAssignsDenseIds) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("MM");
  const NodeId b = net.register_node("RM1");
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(net.node_name(a), "MM");
  EXPECT_EQ(net.node_name(b), "RM1");
  EXPECT_EQ(net.node_count(), 2u);
}

TEST(Network, DeliversAfterLatency) {
  sim::Simulator sim;
  Network net{sim, fixed_latency(SimTime::micros(500))};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  SimTime delivered_at;
  net.send(a, b, MessageKind::kCfp, Bytes::of(0), [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, SimTime::micros(500));
}

TEST(Network, LatencyIncludesSerialization) {
  sim::Simulator sim;
  Network net{sim, fixed_latency(SimTime::zero())};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  SimTime delivered_at;
  // 125'000 bytes at 1 Gbit/s = 1 ms.
  net.send(a, b, MessageKind::kBid, Bytes::of(125'000), [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered_at, SimTime::millis(1));
}

TEST(Network, AccountsPerKindAndPerNode) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  net.send(a, b, MessageKind::kCfp, Bytes::of(100), [] {});
  net.send(a, b, MessageKind::kCfp, Bytes::of(50), [] {});
  net.send(b, a, MessageKind::kBid, Bytes::of(10), [] {});
  sim.run();

  EXPECT_EQ(net.stats().total_messages, 3u);
  EXPECT_EQ(net.stats().total_bytes, 160u);
  EXPECT_EQ(net.stats().count(MessageKind::kCfp), 2u);
  EXPECT_EQ(net.stats().bytes(MessageKind::kCfp), 150u);
  EXPECT_EQ(net.stats().count(MessageKind::kBid), 1u);

  EXPECT_EQ(net.node_sent(a).total_messages, 2u);
  EXPECT_EQ(net.node_received(a).total_messages, 1u);
  EXPECT_EQ(net.node_sent(b).count(MessageKind::kBid), 1u);
  EXPECT_EQ(net.node_received(b).bytes(MessageKind::kCfp), 150u);
}

TEST(Network, ResetStatsKeepsTopology) {
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  net.send(a, b, MessageKind::kRegister, Bytes::of(10), [] {});
  sim.run();
  net.reset_stats();
  EXPECT_EQ(net.stats().total_messages, 0u);
  EXPECT_EQ(net.node_sent(a).total_messages, 0u);
  EXPECT_EQ(net.node_count(), 2u);
}

/// Eager reference for the per-node tables: the sums Network::send would
/// add to the sender's and receiver's blocks if it updated them per message.
void add(TrafficStats& s, MessageKind kind, std::uint64_t bytes) {
  ++s.count_by_kind[static_cast<std::size_t>(kind)];
  s.bytes_by_kind[static_cast<std::size_t>(kind)] += bytes;
  ++s.total_messages;
  s.total_bytes += bytes;
}

void expect_same(const TrafficStats& got, const TrafficStats& want, const char* what,
                 std::size_t node) {
  EXPECT_EQ(got.count_by_kind, want.count_by_kind) << what << " node " << node;
  EXPECT_EQ(got.bytes_by_kind, want.bytes_by_kind) << what << " node " << node;
  EXPECT_EQ(got.total_messages, want.total_messages) << what << " node " << node;
  EXPECT_EQ(got.total_bytes, want.total_bytes) << what << " node " << node;
}

TEST(Network, BatchedPerNodeStatsEqualEagerSums) {
  // Several stat-log batches' worth of sends, with a mid-run read, a
  // partition window and a reset_stats() that land off batch boundaries:
  // every per-node table must equal the sums of eager per-message updates.
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  constexpr std::size_t kNodes = 5;
  std::vector<NodeId> nodes;
  for (std::size_t n = 0; n < kNodes; ++n) nodes.push_back(net.register_node("n"));
  std::vector<TrafficStats> sent(kNodes);
  std::vector<TrafficStats> received(kNodes);

  const std::size_t total = Network::kStatLogBatch * 4 + 123;
  const std::size_t cut = Network::kStatLogBatch + 77;
  const std::size_t heal = Network::kStatLogBatch * 2 + 5;
  const std::size_t reset = Network::kStatLogBatch * 2 + 1000;
  const std::size_t peek = Network::kStatLogBatch * 3 + 11;
  for (std::size_t i = 0; i < total; ++i) {
    if (i == cut) net.set_link_down(nodes[0], nodes[1]);
    if (i == heal) net.set_link_up(nodes[0], nodes[1]);
    if (i == reset) {
      net.reset_stats();
      sent.assign(kNodes, TrafficStats{});
      received.assign(kNodes, TrafficStats{});
    }
    if (i == peek) expect_same(net.node_sent(nodes[2]), sent[2], "mid-run sent", 2);
    const std::size_t from = i % kNodes;
    const std::size_t to = (i * 3 + 1) % kNodes;
    const auto kind = static_cast<MessageKind>(i % kMessageKindCount);
    const std::uint64_t bytes = (i * 37) % 1000;
    net.send(nodes[from], nodes[to], kind, Bytes::of(static_cast<std::int64_t>(bytes)), [] {});
    add(sent[from], kind, bytes);
    const bool on_cut_link = (from == 0 && to == 1) || (from == 1 && to == 0);
    if (!(on_cut_link && i >= cut && i < heal)) add(received[to], kind, bytes);
  }
  sim.run();

  for (std::size_t n = 0; n < kNodes; ++n) {
    expect_same(net.node_sent(nodes[n]), sent[n], "sent", n);
    expect_same(net.node_received(nodes[n]), received[n], "received", n);
  }
}

TEST(Network, MessagesPreserveCausality) {
  // A request/reply round trip must deliver strictly after the request.
  sim::Simulator sim;
  Network net{sim, fixed_latency()};
  const NodeId a = net.register_node("a");
  const NodeId b = net.register_node("b");
  std::vector<int> order;
  net.send(a, b, MessageKind::kResourceQuery, Bytes::of(8), [&] {
    order.push_back(1);
    net.send(b, a, MessageKind::kResourceReply, Bytes::of(8), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(MessageKind, AllKindsHaveNames) {
  for (std::size_t k = 0; k < kMessageKindCount; ++k) {
    EXPECT_NE(to_string(static_cast<MessageKind>(k)), "unknown");
  }
}

TEST(LatencyModelTest, JitterIsNonNegativeAndVaries) {
  LatencyModel::Params p;
  p.base = SimTime::micros(100);
  p.jitter_mean = SimTime::micros(50);
  LatencyModel m{p, Rng{42}};
  SimTime first = m.sample(Bytes::of(0));
  bool varied = false;
  for (int i = 0; i < 100; ++i) {
    const SimTime s = m.sample(Bytes::of(0));
    EXPECT_GE(s, p.base);
    varied |= s != first;
  }
  EXPECT_TRUE(varied);
}

TEST(NodeIdTest, InvalidAndHash) {
  NodeId invalid;
  EXPECT_FALSE(invalid.is_valid());
  EXPECT_EQ(invalid.to_string(), "node<invalid>");
  NodeId valid{3};
  EXPECT_TRUE(valid.is_valid());
  EXPECT_EQ(valid.to_string(), "node3");
  EXPECT_EQ(std::hash<NodeId>{}(valid), std::hash<std::uint32_t>{}(3u));
}

}  // namespace
}  // namespace sqos::net
