// Ablation A5 — the perf runner over the hot QoS primitives: bid assembly,
// policy scoring, the two-queue history, Zipf sampling, the hotspot cover,
// the event queue, message delivery and the allocation ledger. It is a
// deterministic macro-loop driver that prints one line per phase and emits
// the machine-readable `sqos-bench-v1` document consumed by tools/perf_gate:
//
//   bench_micro_core quick=1 json=BENCH_core.json
//
// Keys: quick=1 (reduced iterations), iters=N (event-churn iterations),
// reps=N (repetitions, best taken), json=PATH (write BENCH_core.json).
//
// Besides absolute ns/op the runner reports each phase's cost normalized by
// a fixed integer-spin calibration loop measured in the same process; the
// normalized numbers are what the CI perf gate compares across machines.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bid.hpp"
#include "core/destination_selector.hpp"
#include "core/file_heat.hpp"
#include "core/history_window.hpp"
#include "core/selection_policy.hpp"
#include "core/selection_tree.hpp"
#include "dfs/metadata_manager.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "storage/bandwidth_ledger.hpp"
#include "storage/blkio_throttle.hpp"
#include "util/bench_json.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace {

using namespace sqos;

/// Compiler barrier: `v` counts as read and written, so the work producing
/// it cannot be folded away (the GCC form of Google Benchmark's
/// DoNotOptimize).
template <typename T>
[[gnu::always_inline]] inline void do_not_optimize(T& v) {
  asm volatile("" : "+m,r"(v) : : "memory");
}

/// A day-long run's queue shape: 2^18 pending events spread over 48
/// simulated hours (every arrival scheduled up front). The churn phase keeps
/// 1,024 events within 100 ms, which stays cache-resident.
constexpr std::size_t kLargePending = std::size_t{1} << 18;
constexpr std::uint64_t kLargeSpanUs = std::uint64_t{48} * 3600 * 1'000'000;

void schedule_large(sim::Simulator& sim, Rng& rng, std::uint64_t* sink) {
  const std::uint64_t a = rng.next_below(kLargeSpanUs);
  sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(a)), [sink, a] { *sink += a; });
}

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point begin, Clock::time_point end) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
}

/// Fixed integer-spin loop: the per-iteration cost normalizes the phase
/// timings so the perf gate compares shapes, not machines.
double calibration_spin_ns(std::size_t iters) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    do_not_optimize(x);
  }
  const auto t1 = Clock::now();
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// Steady-state schedule/execute churn with a representative 32-byte
/// capture; the pre-PR kernel paid one heap allocation per scheduled event
/// on exactly this path.
double event_churn_ns(std::size_t iters) {
  sim::Simulator sim;
  Rng rng{2};
  std::uint64_t sink = 0;
  std::uint64_t* p = &sink;
  const auto payload = [&rng] { return rng.next_below(100000); };
  for (int i = 0; i < 1024; ++i) {
    const std::uint64_t a = payload();
    sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(a)),
                       [p, a, b = a ^ 0x5bull, c = a + 17] { *p += a + b + c; });
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t a = payload();
    sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(a)),
                       [p, a, b = a ^ 0x5bull, c = a + 17] { *p += a + b + c; });
    sim.step();
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// Schedule two, cancel one, execute one — the timeout-heavy protocol shape
/// (every negotiation arms a timeout it almost always cancels).
double event_cancel_ns(std::size_t iters) {
  sim::Simulator sim;
  Rng rng{3};
  std::uint64_t sink = 0;
  std::uint64_t* p = &sink;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t a = rng.next_below(100000);
    sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(a)), [p, a] { *p += a; });
    const sim::EventId timeout = sim.schedule_after(
        SimTime::micros(static_cast<std::int64_t>(a) + 200000), [p, a] { *p -= a; });
    sim.cancel(timeout);
    sim.step();
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / (3.0 * static_cast<double>(iters));
}

/// Schedule one, execute one against 2^18 pending events spread over 48
/// simulated hours.
double event_large_ns(std::size_t iters) {
  sim::Simulator sim;
  Rng rng{7};
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kLargePending; ++i) schedule_large(sim, rng, &sink);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    schedule_large(sim, rng, &sink);
    sim.step();
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One control message end to end: accounting, latency sampling, delivery.
double net_delivery_ns(std::size_t iters) {
  sim::Simulator sim;
  net::Network network{sim, net::LatencyModel{{}, Rng{4}}};
  const net::NodeId a = network.register_node("a");
  const net::NodeId b = network.register_node("b");
  std::uint64_t sink = 0;
  std::uint64_t* p = &sink;
  for (int i = 0; i < 64; ++i) {
    network.send(a, b, net::MessageKind::kCfp, Bytes::of(64), [p] { *p += 1; });
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t v = i;
    network.send(a, b, net::MessageKind::kBid, Bytes::of(128),
                 [p, v, w = v * 3, x = v + 9] { *p += v + w + x; });
    sim.step();
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// The RM data-path flow cycle: admit a flow, sync the ledger, release it,
/// sync again.
double flow_ledger_ns(std::size_t iters) {
  storage::ThrottleGroup group{"bench", Bandwidth::mbps(18.0)};
  storage::BandwidthLedger ledger{group.cap(), SimTime::zero()};
  std::int64_t t = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    t += 500;
    const storage::FlowId flow = group.add_flow(storage::FlowKind::kRead, i % 64,
                                                Bandwidth::bytes_per_sec(175e3), SimTime::micros(t));
    ledger.on_allocation_change(SimTime::micros(t), group.allocated());
    t += 500;
    group.remove_flow(flow);
    ledger.on_allocation_change(SimTime::micros(t), group.allocated());
  }
  const auto t1 = Clock::now();
  double ratio = ledger.overallocate_ratio();
  do_not_optimize(ratio);
  return elapsed_ns(t0, t1) / (2.0 * static_cast<double>(iters));
}

/// One CFP winner selection over 128 bids via the tree-backed fast path:
/// score fill into a reused buffer + choose_scored against a scratch index.
/// Regression guard for the zero-allocation selection wiring — the pre-tree
/// client copied the candidate vector and re-scored per decision.
double policy_select_ns(std::size_t iters) {
  Rng rng{5};
  constexpr std::size_t kBids = 128;
  std::vector<core::BidInfo> bids(kBids);
  for (std::size_t i = 0; i < kBids; ++i) {
    bids[i].b_rem_bps = 1e6 * static_cast<double>(rng.next_below(4));  // tie-heavy
    bids[i].trend_bps = 0.0;
    bids[i].occupation_bias = rng.uniform(0.1, 1.0);
    bids[i].b_req_bps = 175e3;
  }
  const core::SelectionPolicy policy{core::PolicyWeights::p111()};
  core::SelectionTree scratch;
  std::vector<double> scores;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    bids[i % kBids].b_rem_bps = 1e6 * static_cast<double>(i % 4);
    scores.clear();
    for (const core::BidInfo& b : bids) scores.push_back(policy.score(b));
    const auto pick = policy.choose_scored(kBids, scores, rng, scratch);
    sink += pick.value_or(0);
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One MM replica-list answer against a 1024-RM catalog: the COW snapshot
/// hit path. Regression guard for the per-query non-holder vector the
/// pre-tree MM materialized (O(RMs) work and allocation per CFP round).
double replica_query_ns(std::size_t iters) {
  dfs::MetadataManager mm{net::NodeId{0}};
  constexpr std::size_t kRms = 1024;
  constexpr std::uint64_t kFiles = 128;
  for (std::size_t r = 0; r < kRms; ++r) {
    dfs::RegisterMsg msg;
    msg.rm = net::NodeId{static_cast<std::uint32_t>(r + 1)};
    msg.dispatched_bandwidth = Bandwidth::mbps(r % 8 == 0 ? 128.0 : 18.0);
    msg.disk_capacity = Bytes::gib(16.0);
    msg.stored_files = {1 + (r % kFiles), 1 + ((r + 7) % kFiles)};
    mm.handle_register(std::move(msg));
  }
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const dfs::ReplicaListReplyMsg reply = mm.handle_replica_list_query(1 + (i % kFiles));
    sink += reply.current_replicas + reply.non_holder_slot(i % reply.non_holder_count());
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One replication-destination pick (LBF, 3 copies) from a 1024-slot
/// bandwidth index with 3 holders excluded. Regression guard for the
/// tree-backed destination path and the reused permutation/scratch buffers
/// (the pre-tree agent materialized a candidate vector per planned file and
/// Fisher-Yates-allocated per selection).
double dest_select_ns(std::size_t iters) {
  constexpr std::size_t kSlots = 1024;
  std::vector<double> keys(kSlots);
  for (std::size_t s = 0; s < kSlots; ++s) {
    keys[s] = s % 8 == 0 ? 128.0e6 : (s % 2 == 0 ? 18.0e6 : 19.0e6);
  }
  core::SelectionTree tree;
  tree.build(keys);
  Rng rng{6};
  core::DestinationScratch scratch;
  std::vector<std::uint32_t> picks;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto base = static_cast<std::uint32_t>(i % (kSlots - 3));
    const std::uint32_t holders[] = {base, base + 1, base + 2};
    const core::DestinationPool pool{&tree, holders};
    core::select_destination_slots(core::DestinationStrategy::kLargestBandwidthFirst, pool, 3,
                                   rng, scratch, picks);
    for (const std::uint32_t p : picks) sink += p;
  }
  const auto t1 = Clock::now();
  do_not_optimize(sink);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One bid assembled from an RM's state (§IV's B_rem, trend and occupation
/// terms).
double bid_assembly_ns(std::size_t iters) {
  core::BidInputs in;
  in.b_rem = Bandwidth::mbps(18.0);
  in.b_used = Bandwidth::mbps(12.0);
  in.reference.valid = true;
  in.reference.t_start = SimTime::seconds(0.0);
  in.reference.t_end = SimTime::seconds(60.0);
  in.reference.fs_total = Bytes::mib(512.0);
  in.now = SimTime::seconds(90.0);
  in.b_req = Bandwidth::mbps(1.4);
  in.t_ocp = SimTime::seconds(240.0);
  in.t_ocp_avg = SimTime::seconds(300.0);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    core::BidInfo bid = core::make_bid(in);
    do_not_optimize(bid);
  }
  const auto t1 = Clock::now();
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One access recorded in an RM's two-queue history, 1 ms apart.
double history_record_ns(std::size_t iters) {
  core::TwoQueueHistory history;
  std::int64_t t = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    history.record(SimTime::micros(t), Bytes::mib(50.0));
    t += 1000;
  }
  const auto t1 = Clock::now();
  std::size_t exchanges = history.exchanges();
  do_not_optimize(exchanges);
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One file drawn from a 1,000-file Zipf(1.0) catalog.
double zipf_sample_ns(std::size_t iters) {
  const ZipfDistribution zipf{1000, 1.0};
  Rng rng{3};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    std::size_t file = zipf.sample(rng);
    do_not_optimize(file);
  }
  const auto t1 = Clock::now();
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One replication round's hotspot query: the busiest files covering half
/// of 20,000 Zipf-distributed accesses over 500 files.
double busiest_cover_ns(std::size_t iters) {
  core::FileHeat heat;
  Rng rng{4};
  const ZipfDistribution zipf{500, 1.0};
  for (int i = 0; i < 20'000; ++i) heat.record_access(zipf.sample(rng));
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    std::vector<std::uint64_t> cover = heat.busiest_cover(0.5);
    do_not_optimize(cover);
  }
  const auto t1 = Clock::now();
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

double peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux reports KiB
}

template <typename Fn>
double best_of(std::size_t reps, Fn&& phase) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const double ns = phase();
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

int run_perf_runner(const Config& cfg) {
  const bool quick = cfg.get_bool("quick", false);
  const auto iters = cfg.get_count("iters", quick ? 300'000 : 3'000'000);
  const auto reps = cfg.get_count("reps", quick ? 2 : 3);
  const std::string json_path = cfg.get_string("json", "");

  std::printf("== bench_micro_core perf runner (%s, %zu iterations x %zu reps) ==\n",
              quick ? "quick" : "full", iters, reps);

  // One phase per kernel: its JSON name, the operation its time is per, its
  // printed label and its best-of-reps time. The phases run in this order.
  struct Phase {
    const char* name;
    const char* op;
    const char* label;
    double ns;
  };
  const double spin = best_of(reps, [&] { return calibration_spin_ns(iters * 4); });
  const Phase phases[] = {
      {"event_churn", "event", "event churn",
       best_of(reps, [&] { return event_churn_ns(iters); })},
      {"event_cancel", "op", "event cancel",
       best_of(reps, [&] { return event_cancel_ns(iters / 2); })},
      {"event_queue_large", "event", "event churn (2^18/48h)",
       best_of(reps, [&] { return event_large_ns(iters); })},
      {"net_delivery", "message", "net delivery",
       best_of(reps, [&] { return net_delivery_ns(iters / 2); })},
      {"flow_ledger", "update", "flow+ledger cycle",
       best_of(reps, [&] { return flow_ledger_ns(iters / 2); })},
      {"policy_select", "decision", "policy select (128)",
       best_of(reps, [&] { return policy_select_ns(iters / 8); })},
      {"replica_query", "query", "replica query (1024)",
       best_of(reps, [&] { return replica_query_ns(iters / 8); })},
      {"dest_select", "pick", "dest select (1024)",
       best_of(reps, [&] { return dest_select_ns(iters / 8); })},
      {"bid_assembly", "bid", "bid assembly",
       best_of(reps, [&] { return bid_assembly_ns(iters); })},
      {"history_record", "record", "history record",
       best_of(reps, [&] { return history_record_ns(iters); })},
      {"zipf_sample", "sample", "zipf sample (1000)",
       best_of(reps, [&] { return zipf_sample_ns(iters / 2); })},
      {"busiest_cover", "cover", "busiest cover (500)",
       best_of(reps, [&] { return busiest_cover_ns(iters / 128); })},
  };
  const double rss = peak_rss_bytes();
  const double churn = phases[0].ns;
  const double events_per_sec = 1e9 / churn;

  BenchReport report{"bench_micro_core"};
#ifdef NDEBUG
  report.set_meta("build", "release");
#else
  report.set_meta("build", "debug");
#endif
  report.set_meta("compiler", __VERSION__);
  report.set_meta("mode", quick ? "quick" : "full");
  report.set_meta("iters", std::to_string(iters));
  report.set_meta("reps", std::to_string(reps));

  // Absolute numbers are informational (they describe *this* machine); the
  // spin-normalized costs (phase ns / calibration-spin ns) are what the CI
  // perf gate compares across machines.
  report.add("events_per_sec", events_per_sec, "1/s", MetricGoal::kInfo);
  report.add("ns_per_event", churn, "ns", MetricGoal::kInfo);
  report.add("peak_rss_bytes", rss, "bytes", MetricGoal::kInfo);
  report.add("calibration.spin_ns_per_iter", spin, "ns", MetricGoal::kInfo);
  std::printf("calibration spin      %8.2f ns/iter\n", spin);
  for (const Phase& phase : phases) {
    const std::string name = phase.name;
    report.add(name + ".ns_per_" + phase.op, phase.ns, "ns", MetricGoal::kInfo);
    report.add(name + ".norm_cost", phase.ns / spin, "x", MetricGoal::kLowerIsBetter);
    std::printf("%-22s%8.2f ns/%-8s (%.1fx spin)\n", phase.label, phase.ns, phase.op,
                phase.ns / spin);
  }
  std::printf("event churn rate      %8.0f events/sec\n", events_per_sec);
  std::printf("peak RSS              %8.1f MiB\n", rss / (1024.0 * 1024.0));

  if (!json_path.empty()) {
    const Status s = report.write_file(json_path);
    if (!s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = sqos::Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 2;
  }
  if (const sqos::Status known = parsed.value().require_known({"quick", "iters", "reps", "json"});
      !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 2;
  }
  return run_perf_runner(std::move(parsed).take());
}
