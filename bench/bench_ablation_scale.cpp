// Ablation A9 — scaling in two directions.
//
// Part 1 (load): user-count scaling beyond the paper's 256 users: where does
// each mechanism stop helping? Sweeps the user count past saturation and
// tracks the best static policy against Rep(1,3), showing the regime
// boundaries: (a) light load where everything is free, (b) the imbalance
// regime where selection + replication recover most QoS, (c) global
// over-subscription where no placement policy can help and only admission
// control degrades gracefully.
//
// Part 2 (cluster size): events/sec and decision latency vs. RM count on the
// scaled paper topology (exp::scaled_cluster_config). Full mode runs the
// curve to 2048 RMs with 10^5 clients; quick mode trims it for CI. Each cell
// reports exact determinism fingerprints (executed_events, request counts)
// plus wall-clock events/sec, and a deterministic micro-loop measures the
// per-decision cost of the selection index (re-key + argmax + tie pick +
// holder-excluded argmax) at sizes up to 4096 slots, normalized by an
// integer-spin calibration so tools/perf_gate can compare runs across
// machines. The binary exits non-zero if the normalized decision latency
// grows superlinearly in log(n) terms — the O(log n) regression assertion.
#include <array>
#include <chrono>
#include <cmath>

#include "bench_common.hpp"
#include "core/selection_tree.hpp"

namespace {

using namespace sqos;
using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point begin, Clock::time_point end) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
}

/// Fixed integer-spin loop (same recurrence as bench_micro_core): the
/// per-iteration cost normalizes the decision timings so the perf gate
/// compares shapes, not machines. The running value feeds `sink` so the
/// loop cannot be optimized away.
double calibration_spin_ns(std::size_t iters, std::uint64_t& sink) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Compiler barrier: without it the dead recurrence folds away and the
    // "spin cost" measures clock overhead.
    asm volatile("" : "+r"(x));
  }
  const auto t1 = Clock::now();
  sink += x;
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
}

/// One full selection decision against an `n`-slot index, the shape the MM
/// and clients execute per negotiation: an allocate/release re-key, the
/// argmax with a tie pick, and a 3-holder-excluded argmax (the replication
/// destination query). The checksum folds every answer, so the loop is also
/// an exact cross-build determinism fingerprint.
double decision_latency_ns(std::size_t n, std::size_t iters, std::uint64_t& checksum) {
  core::SelectionTree tree{n};
  // Paper-like discrete bandwidth levels: position 1 of every 8-RM block is
  // extra-large, so ties among the small RMs are the common case, exactly
  // like the scaled topology.
  const std::array<double, 4> levels{18.0e6, 19.0e6, 128.0e6, 18.5e6};
  for (std::uint32_t s = 0; s < n; ++s) {
    tree.set_key(s, s % 8 == 0 ? levels[2] : levels[s % 2]);
  }
  std::array<std::uint32_t, 3> holders{};
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const auto slot = static_cast<std::uint32_t>(i % n);
    tree.set_key(slot, levels[(i / n + static_cast<std::size_t>(slot)) % levels.size()]);
    const core::SelectionTree::Best best = tree.best();
    sum += best.slot + tree.tie_at(static_cast<std::uint32_t>(i % best.ties));
    // Three sorted holder slots, shifting with i like replica sets do.
    const auto base = static_cast<std::uint32_t>(i % (n > 3 ? n - 3 : 1));
    holders = {base, base + 1, base + 2};
    const core::SelectionTree::Best ex = tree.best_excluding(holders);
    sum += ex.ties == 0 ? 0 : ex.slot;
  }
  const auto t1 = Clock::now();
  checksum += sum;
  return elapsed_ns(t0, t1) / static_cast<double>(iters);
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

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A9 — load and cluster-size scaling",
                        "QoS vs users; events/sec and decision latency vs RM count", args);

  // ------------------------------------------------- part 1: load scaling --
  AsciiTable table{"Scaling sweep ((1,0,0); Rep = Rep(1,3))"};
  table.set_header({"users", "firm static", "firm Rep", "soft static", "soft Rep",
                    "negotiate ms"});
  CsvWriter csv = bench::open_csv(args, {"users", "firm_static", "firm_rep", "soft_static",
                                         "soft_rep", "mean_negotiation_ms"});

  const std::vector<std::size_t> user_counts =
      args.quick ? std::vector<std::size_t>{128, 512}
                 : std::vector<std::size_t>{64, 128, 256, 384, 512, 768};
  // All four (mode × replication) variants of every user count are
  // independent cells: fan the whole grid out, render afterwards.
  bench::CellSweep sweep{args};
  std::vector<std::array<std::size_t, 4>> cells;
  for (const std::size_t users : user_counts) {
    exp::ExperimentParams params;
    params.users = users;
    params.policy = core::PolicyWeights::p100();
    std::array<std::size_t, 4> row_cells{};

    params.mode = core::AllocationMode::kFirm;
    params.replication = core::ReplicationConfig::static_only();
    row_cells[0] = sweep.submit(params);
    params.replication = core::ReplicationConfig::rep(1, 3);
    row_cells[1] = sweep.submit(params);

    params.mode = core::AllocationMode::kSoft;
    params.replication = core::ReplicationConfig::static_only();
    row_cells[2] = sweep.submit(params);
    params.replication = core::ReplicationConfig::rep(1, 3);
    row_cells[3] = sweep.submit(params);
    cells.push_back(row_cells);
  }
  sweep.run();

  for (std::size_t ui = 0; ui < user_counts.size(); ++ui) {
    const std::size_t users = user_counts[ui];
    const exp::ExperimentResult& firm_static = sweep.result(cells[ui][0]);
    const exp::ExperimentResult& firm_rep = sweep.result(cells[ui][1]);
    const exp::ExperimentResult& soft_static = sweep.result(cells[ui][2]);
    const exp::ExperimentResult& soft_rep = sweep.result(cells[ui][3]);

    table.add_row({std::to_string(users), format_percent(firm_static.fail_rate, 2),
                   format_percent(firm_rep.fail_rate, 2),
                   format_percent(soft_static.overallocate_ratio, 2),
                   format_percent(soft_rep.overallocate_ratio, 2),
                   format_double(firm_static.mean_negotiation_ms, 2)});
    csv.row({std::to_string(users), format_double(firm_static.fail_rate, 6),
             format_double(firm_rep.fail_rate, 6),
             format_double(soft_static.overallocate_ratio, 6),
             format_double(soft_rep.overallocate_ratio, 6),
             format_double(firm_static.mean_negotiation_ms, 4)});
  }
  table.print();
  std::printf("\nExpected shape: replication's relative gain peaks in the imbalance regime\n"
              "around the paper's 256-user point and shrinks as aggregate demand crosses\n"
              "total capacity (~512+ users), where only admission control is left.\n"
              "Negotiation latency stays flat — the control plane does not congest.\n");

  // ----------------------------------------- part 2: cluster-size scaling --
  // Scaled paper topologies with a 10-minute arrival window (the 2 h paper
  // window would make the 10^5-client cell a soak, not a bench). One seed per
  // cell: the curve is a determinism fingerprint, not an average.
  struct ScalePoint {
    std::size_t rms;
    std::size_t users;
  };
  const std::vector<ScalePoint> scale_points =
      args.quick ? std::vector<ScalePoint>{{16, 128}, {64, 512}}
                 : std::vector<ScalePoint>{
                       {16, 800}, {64, 3200}, {256, 12800}, {1024, 51200}, {2048, 100000}};

  bench::BenchArgs scale_args = args;
  scale_args.seeds = 1;
  bench::CellSweep scale_sweep{scale_args};
  std::vector<std::size_t> scale_cells;
  for (const ScalePoint& pt : scale_points) {
    exp::ExperimentParams params;
    params.users = pt.users;
    params.mode = core::AllocationMode::kSoft;
    params.policy = core::PolicyWeights::p100();
    params.replication = core::ReplicationConfig::rep(1, 3);
    params.cluster = exp::scaled_cluster_config(pt.rms);
    workload::PatternParams pattern = exp::paper_pattern_params(pt.users);
    pattern.duration = SimTime::seconds(600.0);
    params.pattern = pattern;
    scale_cells.push_back(scale_sweep.submit(params));
  }
  scale_sweep.run();

  AsciiTable scale_table{"Cluster-size curve (soft, (1,0,0), Rep(1,3), 600 s window)"};
  scale_table.set_header(
      {"RMs", "users", "requests", "events", "events/sec", "negotiate ms"});
  for (std::size_t i = 0; i < scale_points.size(); ++i) {
    const ScalePoint& pt = scale_points[i];
    const exp::ExperimentResult& r = scale_sweep.result(scale_cells[i]);
    const double wall_s = scale_sweep.wall_ms(scale_cells[i]) / 1000.0;
    const double events_per_sec =
        wall_s > 0.0 ? static_cast<double>(r.executed_events) / wall_s : 0.0;
    bench::JsonSink& sink = bench::json_sink();
    if (!sink.path.empty()) {
      const std::string tag = "scale.rm" + std::to_string(pt.rms) + ".";
      sink.report.add(tag + "mean_negotiation_ms", r.mean_negotiation_ms, "ms",
                      MetricGoal::kExact);
      sink.report.add(tag + "events_per_sec", events_per_sec, "1/s", MetricGoal::kInfo);
    }
    scale_table.add_row({std::to_string(pt.rms), std::to_string(pt.users),
                         std::to_string(r.requests), std::to_string(r.executed_events),
                         format_double(events_per_sec, 0),
                         format_double(r.mean_negotiation_ms, 2)});
  }
  scale_table.print();

  // --------------------------- part 3: decision-latency micro curve --------
  // Wall-clock cost of one selection decision vs index size, spin-normalized.
  // Runs the full size range even in quick mode — it is a micro loop, cheap
  // at every size — so the CI gate always sees the 4096-slot point.
  const std::vector<std::size_t> micro_sizes =
      args.quick ? std::vector<std::size_t>{16, 256, 4096}
                 : std::vector<std::size_t>{16, 64, 256, 1024, 2048, 4096};
  const std::size_t iters = args.quick ? 150'000 : 600'000;
  const std::size_t reps = args.quick ? 2 : 3;

  std::uint64_t spin_sink = 0;
  const double spin = best_of(reps, [&] { return calibration_spin_ns(iters * 4, spin_sink); });

  AsciiTable micro_table{"Selection-index decision latency (re-key + argmax + tie pick + "
                         "holder-excluded argmax)"};
  micro_table.set_header({"slots", "ns/decision", "x spin", "checksum"});
  std::vector<double> norm_costs;
  for (const std::size_t n : micro_sizes) {
    // The loop is deterministic, so every rep reproduces the same checksum;
    // reps only sharpen the timing (best-of).
    std::uint64_t checksum = 0;
    const double ns = best_of(reps, [&] {
      checksum = 0;
      return decision_latency_ns(n, iters, checksum);
    });
    norm_costs.push_back(ns / spin);
    micro_table.add_row({std::to_string(n), format_double(ns, 1),
                         format_double(ns / spin, 2), std::to_string(checksum)});
    bench::JsonSink& sink = bench::json_sink();
    if (!sink.path.empty()) {
      const std::string tag = "scale_micro.rm" + std::to_string(n) + ".";
      sink.report.add(tag + "decision_ns", ns, "ns", MetricGoal::kInfo);
      sink.report.add(tag + "norm_cost", ns / spin, "x", MetricGoal::kLowerIsBetter);
      sink.report.add(tag + "checksum", static_cast<double>(checksum), "",
                      MetricGoal::kExact);
    }
  }
  micro_table.print();

  // O(log n) regression assertion: from 16 to 4096 slots a linear scan grows
  // ~256x; the tree should grow ~log2(4096)/log2(16) = 3x. Allow generous
  // slack for cache effects, fail hard on anything near linear.
  const double growth = norm_costs.back() / norm_costs.front();
  std::printf("\ndecision-latency growth %zu -> %zu slots: %.2fx "
              "(linear scan would be ~%.0fx)\n",
              micro_sizes.front(), micro_sizes.back(), growth,
              static_cast<double>(micro_sizes.back()) /
                  static_cast<double>(micro_sizes.front()));
  if (!bench::json_sink().path.empty()) {
    bench::json_sink().report.add("scale_micro.growth", growth, "x",
                                  MetricGoal::kLowerIsBetter);
  }
  constexpr double kMaxGrowth = 32.0;
  if (growth > kMaxGrowth) {
    std::fprintf(stderr,
                 "FAIL: decision latency grew %.1fx from %zu to %zu slots "
                 "(limit %.0fx) — selection index is no longer O(log n)\n",
                 growth, micro_sizes.front(), micro_sizes.back(), kMaxGrowth);
    return 1;
  }
  return 0;
}
