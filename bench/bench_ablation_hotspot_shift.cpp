// Ablation A10 — moving hotspots. The paper's replication is motivated by
// "data access hotspots" (§V); this ablation makes the hotspot *move*: the
// popularity ranking is re-dealt to different files every half hour, so a
// placement that was balanced in phase k is wrong in phase k+1. Static
// replication cannot follow; dynamic replication keeps migrating.
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "workload/trace.hpp"
#include "workload/video_catalog.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv, {"phases"});
  bench::print_preamble("Ablation A10 — shifting-hotspot workload (popularity re-dealt per phase)",
                        "QoS per replication strategy, stationary vs 4-phase workload", args);

  const std::size_t users = args.cfg.get_count("users", 256);
  const std::size_t phases = args.cfg.get_count("phases", 4);

  // Build the shifting trace against the exact catalog a base-seed run
  // regenerates from the same seed forks.
  exp::ExperimentParams proto;
  proto.users = users;
  proto.seed = args.base_seed;
  Rng root{proto.seed};
  Rng catalog_rng = root.fork("catalog");
  const dfs::FileDirectory directory = workload::generate_catalog(proto.catalog, catalog_rng);
  Rng pattern_rng = root.fork("pattern");
  workload::ShiftingPatternParams shifting;
  shifting.base = exp::paper_pattern_params(users);
  shifting.phases = phases;
  const auto events = workload::generate_shifting_pattern(directory, shifting, pattern_rng);
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "sqos_hotspot_shift.trace").string();
  if (const Status s = workload::save_trace(trace_path, events); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  AsciiTable table{"Stationary vs shifting hotspots (soft RT over-allocate, (1,0,0))"};
  table.set_header({"strategy", "stationary", "shifting", "shifting copies",
                    "shifting migrations"});
  CsvWriter csv = bench::open_csv(args, {"strategy", "stationary_roa", "shifting_roa",
                                         "copies", "migrations"});

  const char* names[] = {"static", "Baseline Rep(3,8)", "Rep(1,8)", "Rep(1,3)"};
  const auto strategies = bench::strategy_sweep();
  bench::CellSweep sweep{args};
  for (const core::ReplicationConfig& rep : strategies) {
    exp::ExperimentParams params;
    params.users = users;
    params.mode = core::AllocationMode::kSoft;
    params.policy = core::PolicyWeights::p100();
    params.replication = rep;

    sweep.submit(params);
    params.trace_path = trace_path;
    sweep.submit(params);
  }
  sweep.run();

  std::size_t cell = 0;
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    const exp::ExperimentResult& stationary = sweep.result(cell++);
    const exp::ExperimentResult& shifted = sweep.result(cell++);

    table.add_row({names[si], format_percent(stationary.overallocate_ratio, 2),
                   format_percent(shifted.overallocate_ratio, 2),
                   std::to_string(shifted.copies_completed),
                   std::to_string(shifted.self_deletes)});
    csv.row({strategies[si].strategy_name(), format_double(stationary.overallocate_ratio, 6),
             format_double(shifted.overallocate_ratio, 6),
             std::to_string(shifted.copies_completed), std::to_string(shifted.self_deletes)});
  }
  table.print();
  std::filesystem::remove(trace_path);

  std::printf("\nExpected shape: moving hotspots widen the static-vs-dynamic gap — the\n"
              "static columns degrade when popularity shifts while dynamic replication\n"
              "re-migrates every phase (more copies/migrations than the stationary run).\n");
  return 0;
}
