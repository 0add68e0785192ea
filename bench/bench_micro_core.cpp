// Ablation A5 — microbenchmarks of the hot QoS primitives, in two modes.
//
// google-benchmark mode (default, or any --benchmark_* flag): the per-request
// cost of bid assembly, policy scoring, the two-queue history, the event
// queue and the allocation ledger.
//
// perf-runner mode (any key=value argument): a deterministic macro-loop
// driver over the same hot paths that emits the machine-readable
// `sqos-bench-v1` document consumed by tools/perf_gate:
//
//   bench_micro_core quick=1 json=BENCH_core.json
//
// Keys: quick=1 (reduced iterations), iters=N (event-churn iterations),
// reps=N (repetitions, best taken), json=PATH (write BENCH_core.json).
//
// Besides absolute ns/op the runner reports each phase's cost normalized by
// a fixed integer-spin calibration loop measured in the same process; the
// normalized numbers are what the CI perf gate compares across machines.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
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

// ----------------------------------------------- google-benchmark suite --

void BM_BidAssembly(benchmark::State& state) {
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_bid(in));
  }
}
BENCHMARK(BM_BidAssembly);

void BM_PolicyChoose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  std::vector<core::BidInfo> bids(n);
  for (std::size_t i = 0; i < n; ++i) {
    bids[i].b_rem_bps = rng.uniform(0.0, 2e6);
    bids[i].trend_bps = rng.uniform(-1e5, 1e5);
    bids[i].occupation_bias = rng.uniform(0.1, 1.0);
    bids[i].b_req_bps = 175e3;
  }
  const core::SelectionPolicy policy{core::PolicyWeights::p111()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.choose(bids, rng));
  }
}
BENCHMARK(BM_PolicyChoose)->Arg(3)->Arg(16)->Arg(128);

void BM_HistoryRecord(benchmark::State& state) {
  core::TwoQueueHistory history;
  std::int64_t t = 0;
  for (auto _ : state) {
    history.record(SimTime::micros(t), Bytes::mib(50.0));
    t += 1000;
  }
}
BENCHMARK(BM_HistoryRecord);

void BM_EventQueueSchedule(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng{2};
  // Steady-state churn: schedule one, execute one.
  for (int i = 0; i < 1024; ++i) {
    sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(rng.next_below(100000))),
                       [] {});
  }
  for (auto _ : state) {
    sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(rng.next_below(100000))),
                       [] {});
    sim.step();
  }
}
BENCHMARK(BM_EventQueueSchedule);

/// A day-long run's queue shape: 2^18 pending events spread over 48
/// simulated hours (every arrival scheduled up front). BM_EventQueueSchedule
/// keeps 1,024 events within 100 ms, which stays cache-resident.
constexpr std::size_t kLargePending = std::size_t{1} << 18;
constexpr std::uint64_t kLargeSpanUs = std::uint64_t{48} * 3600 * 1'000'000;

void schedule_large(sim::Simulator& sim, Rng& rng, std::uint64_t* sink) {
  const std::uint64_t a = rng.next_below(kLargeSpanUs);
  sim.schedule_after(SimTime::micros(static_cast<std::int64_t>(a)), [sink, a] { *sink += a; });
}

void BM_EventQueueLarge(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng{7};
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kLargePending; ++i) schedule_large(sim, rng, &sink);
  // Steady-state churn: schedule one, execute one.
  for (auto _ : state) {
    schedule_large(sim, rng, &sink);
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueLarge);

void BM_LedgerUpdate(benchmark::State& state) {
  storage::BandwidthLedger ledger{Bandwidth::mbps(18.0), SimTime::zero()};
  std::int64_t t = 0;
  double alloc = 0.0;
  for (auto _ : state) {
    t += 500;
    alloc = alloc > 2.5e6 ? 0.0 : alloc + 175e3;
    ledger.on_allocation_change(SimTime::micros(t), Bandwidth::bytes_per_sec(alloc));
  }
  benchmark::DoNotOptimize(ledger.overallocate_ratio());
}
BENCHMARK(BM_LedgerUpdate);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf{1000, 1.0};
  Rng rng{3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_FileHeatCover(benchmark::State& state) {
  core::FileHeat heat;
  Rng rng{4};
  const ZipfDistribution zipf{500, 1.0};
  for (int i = 0; i < 20'000; ++i) heat.record_access(zipf.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heat.busiest_cover(0.5));
  }
}
BENCHMARK(BM_FileHeatCover);

// ----------------------------------------------------- perf-runner mode --

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
    benchmark::DoNotOptimize(x);
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
  benchmark::DoNotOptimize(sink);
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
  benchmark::DoNotOptimize(sink);
  return elapsed_ns(t0, t1) / (3.0 * static_cast<double>(iters));
}

/// BM_EventQueueLarge's churn: schedule one, execute one against 2^18
/// pending events spread over 48 simulated hours.
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
  benchmark::DoNotOptimize(sink);
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
  benchmark::DoNotOptimize(sink);
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
  benchmark::DoNotOptimize(ledger.overallocate_ratio());
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
  benchmark::DoNotOptimize(sink);
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
  benchmark::DoNotOptimize(sink);
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
  benchmark::DoNotOptimize(sink);
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

  const double spin = best_of(reps, [&] { return calibration_spin_ns(iters * 4); });
  const double churn = best_of(reps, [&] { return event_churn_ns(iters); });
  const double cancel = best_of(reps, [&] { return event_cancel_ns(iters / 2); });
  const double large = best_of(reps, [&] { return event_large_ns(iters); });
  const double net = best_of(reps, [&] { return net_delivery_ns(iters / 2); });
  const double flow = best_of(reps, [&] { return flow_ledger_ns(iters / 2); });
  const double select = best_of(reps, [&] { return policy_select_ns(iters / 8); });
  const double query = best_of(reps, [&] { return replica_query_ns(iters / 8); });
  const double dest = best_of(reps, [&] { return dest_select_ns(iters / 8); });
  const double rss = peak_rss_bytes();
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

  // Absolute numbers (informational: they describe *this* machine) ...
  report.add("events_per_sec", events_per_sec, "1/s", MetricGoal::kInfo);
  report.add("ns_per_event", churn, "ns", MetricGoal::kInfo);
  report.add("peak_rss_bytes", rss, "bytes", MetricGoal::kInfo);
  report.add("calibration.spin_ns_per_iter", spin, "ns", MetricGoal::kInfo);
  report.add("event_churn.ns_per_event", churn, "ns", MetricGoal::kInfo);
  report.add("event_cancel.ns_per_op", cancel, "ns", MetricGoal::kInfo);
  report.add("event_queue_large.ns_per_event", large, "ns", MetricGoal::kInfo);
  report.add("net_delivery.ns_per_message", net, "ns", MetricGoal::kInfo);
  report.add("flow_ledger.ns_per_update", flow, "ns", MetricGoal::kInfo);
  report.add("policy_select.ns_per_decision", select, "ns", MetricGoal::kInfo);
  report.add("replica_query.ns_per_query", query, "ns", MetricGoal::kInfo);
  report.add("dest_select.ns_per_pick", dest, "ns", MetricGoal::kInfo);
  // ... and spin-normalized costs, which the CI perf gate compares across
  // machines (dimensionless: phase ns / calibration-spin ns).
  report.add("event_churn.norm_cost", churn / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("event_cancel.norm_cost", cancel / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("event_queue_large.norm_cost", large / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("net_delivery.norm_cost", net / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("flow_ledger.norm_cost", flow / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("policy_select.norm_cost", select / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("replica_query.norm_cost", query / spin, "x", MetricGoal::kLowerIsBetter);
  report.add("dest_select.norm_cost", dest / spin, "x", MetricGoal::kLowerIsBetter);

  std::printf("calibration spin      %8.2f ns/iter\n", spin);
  std::printf("event churn           %8.2f ns/event  (%.0f events/sec, %.1fx spin)\n", churn,
              events_per_sec, churn / spin);
  std::printf("event cancel          %8.2f ns/op     (%.1fx spin)\n", cancel, cancel / spin);
  std::printf("event churn (2^18/48h)%8.2f ns/event  (%.1fx spin)\n", large, large / spin);
  std::printf("net delivery          %8.2f ns/msg    (%.1fx spin)\n", net, net / spin);
  std::printf("flow+ledger cycle     %8.2f ns/update (%.1fx spin)\n", flow, flow / spin);
  std::printf("policy select (128)   %8.2f ns/decide (%.1fx spin)\n", select, select / spin);
  std::printf("replica query (1024)  %8.2f ns/query  (%.1fx spin)\n", query, query / spin);
  std::printf("dest select (1024)    %8.2f ns/pick   (%.1fx spin)\n", dest, dest / spin);
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
  bool gbench_mode = argc <= 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) gbench_mode = true;
  }
  if (gbench_mode) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
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
