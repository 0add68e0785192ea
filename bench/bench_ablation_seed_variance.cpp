// Ablation A11 — seed-to-seed variance. The paper reports single runs; with
// Zipf-1.0 popularity the identity of the hot files (their bitrates and
// placements) swings the headline metrics substantially between equally
// valid workload draws. This bench quantifies that spread so the
// reproduction tables can be read with appropriate error bars.
#include "bench_common.hpp"
#include "util/stats_accum.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"spread_seeds"});
  bench::print_preamble("Ablation A11 — metric spread across workload seeds",
                        "mean ± stddev [min, max] over N seeds, 256 users", args);

  const std::size_t seeds = args.quick ? 3 : args.cfg.get_count("spread_seeds", 10);
  AsciiTable table{"Seed spread (" + std::to_string(seeds) + " seeds)"};
  table.set_header({"configuration", "metric", "mean", "stddev", "min", "max"});
  CsvWriter csv =
      bench::open_csv(args, {"configuration", "metric", "mean", "stddev", "min", "max"});

  struct Cell {
    const char* name;
    core::AllocationMode mode;
    core::PolicyWeights policy;
    core::ReplicationConfig rep;
  };
  const Cell cells[] = {
      {"firm static (0,0,0)", core::AllocationMode::kFirm, core::PolicyWeights::random(),
       core::ReplicationConfig::static_only()},
      {"firm static (1,0,0)", core::AllocationMode::kFirm, core::PolicyWeights::p100(),
       core::ReplicationConfig::static_only()},
      {"firm Rep(1,3) (1,0,0)", core::AllocationMode::kFirm, core::PolicyWeights::p100(),
       core::ReplicationConfig::rep(1, 3)},
      {"soft static (1,0,0)", core::AllocationMode::kSoft, core::PolicyWeights::p100(),
       core::ReplicationConfig::static_only()},
      {"soft Rep(1,3) (1,0,0)", core::AllocationMode::kSoft, core::PolicyWeights::p100(),
       core::ReplicationConfig::rep(1, 3)},
  };

  // Per-seed metric matrix: cells share the seed (and hence the catalog,
  // placement and arrivals), so paired comparisons factor the workload
  // noise out. Each seed is one single-seed sweep over the cells.
  std::vector<std::vector<double>> per_seed(std::size(cells));
  for (std::size_t s = 0; s < seeds; ++s) {
    bench::BenchArgs seed_args = args;
    seed_args.seeds = 1;
    seed_args.base_seed = args.base_seed + s;
    bench::CellSweep sweep{seed_args};
    for (const Cell& cell : cells) {
      exp::ExperimentParams params;
      params.users = args.cfg.get_count("users", 256);
      params.mode = cell.mode;
      params.policy = cell.policy;
      params.replication = cell.rep;
      sweep.submit(params);
    }
    sweep.run();
    for (std::size_t ci = 0; ci < std::size(cells); ++ci) {
      const exp::ExperimentResult& r = sweep.result(ci);
      per_seed[ci].push_back(cells[ci].mode == core::AllocationMode::kFirm
                                 ? r.fail_rate
                                 : r.overallocate_ratio);
    }
  }
  for (std::size_t ci = 0; ci < std::size(cells); ++ci) {
    const Cell& cell = cells[ci];
    StatsAccumulator acc;
    for (const double metric : per_seed[ci]) acc.add(metric);
    const char* metric =
        cell.mode == core::AllocationMode::kFirm ? "fail rate" : "over-allocate";
    table.add_row({cell.name, metric, format_percent(acc.mean(), 2),
                   format_percent(acc.stddev(), 2), format_percent(acc.min(), 2),
                   format_percent(acc.max(), 2)});
    csv.row({cell.name, metric, format_double(acc.mean(), 6), format_double(acc.stddev(), 6),
             format_double(acc.min(), 6), format_double(acc.max(), 6)});
  }
  table.print();

  // Paired orderings: on how many seeds does the paper's conclusion hold?
  const auto ordering_holds = [&](std::size_t better, std::size_t worse) {
    std::size_t holds = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      if (per_seed[better][s] <= per_seed[worse][s]) ++holds;
    }
    return holds;
  };
  std::printf("\nPaired per-seed orderings (workload noise factored out):\n");
  std::printf("  firm: (1,0,0) beats (0,0,0)      in %zu/%zu seeds\n", ordering_holds(1, 0),
              seeds);
  std::printf("  firm: Rep(1,3) beats static      in %zu/%zu seeds\n", ordering_holds(2, 1),
              seeds);
  std::printf("  soft: Rep(1,3) beats static      in %zu/%zu seeds\n", ordering_holds(4, 3),
              seeds);
  std::printf("\nReading: individual cells wander with the workload draw (which hot files\n"
              "exist and where their replicas land), but the paired orderings — the paper's\n"
              "actual claims — hold on (nearly) every seed.\n");
  return 0;
}
