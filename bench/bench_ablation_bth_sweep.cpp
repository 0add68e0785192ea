// Ablation A2 — replication-trigger threshold B_TH (§III.B): "if the
// threshold is set too low, it may incur too many replications and degrade
// the efficiency of resource utilization; if it is set too high, a burst of
// resource requirements may lose their QoS assurance." The paper fixes
// B_TH = 20 %; this bench sweeps it.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A2 — B_TH trigger-threshold sweep, Rep(1,3), (1,0,0)",
                        "QoS metrics and replication activity vs B_TH", args);

  AsciiTable table{"B_TH sweep (256 users)"};
  table.set_header({"B_TH", "soft R_OA", "firm fail", "rounds", "copies", "MiB moved",
                    "dest rejects"});
  CsvWriter csv = bench::open_csv(args, {"bth", "mode", "metric", "rounds", "copies",
                                         "bytes_moved", "dest_rejects"});

  const std::vector<double> thresholds =
      args.quick ? std::vector<double>{0.05, 0.20, 0.60}
                 : std::vector<double>{0.05, 0.10, 0.20, 0.40, 0.60};
  bench::CellSweep sweep{args};
  for (const double bth : thresholds) {
    exp::ExperimentParams params;
    params.users = args.cfg.get_count("users", 256);
    params.policy = core::PolicyWeights::p100();
    params.replication = core::ReplicationConfig::rep(1, 3);
    params.replication.trigger_threshold = bth;

    params.mode = core::AllocationMode::kSoft;
    sweep.submit(params);
    params.mode = core::AllocationMode::kFirm;
    sweep.submit(params);
  }
  sweep.run();

  std::size_t cell = 0;
  for (const double bth : thresholds) {
    const exp::ExperimentResult& soft = sweep.result(cell++);
    const exp::ExperimentResult& firm = sweep.result(cell++);

    table.add_row({format_percent(bth, 0), format_percent(soft.overallocate_ratio, 2),
                   format_percent(firm.fail_rate, 2), std::to_string(soft.replication_rounds),
                   std::to_string(soft.copies_completed),
                   format_double(static_cast<double>(soft.bytes_copied) / (1024.0 * 1024.0), 0),
                   std::to_string(soft.destination_rejects)});
    csv.row({format_double(bth, 2), "soft", format_double(soft.overallocate_ratio, 6),
             std::to_string(soft.replication_rounds), std::to_string(soft.copies_completed),
             std::to_string(soft.bytes_copied), std::to_string(soft.destination_rejects)});
    csv.row({format_double(bth, 2), "firm", format_double(firm.fail_rate, 6),
             std::to_string(firm.replication_rounds), std::to_string(firm.copies_completed),
             std::to_string(firm.bytes_copied), std::to_string(firm.destination_rejects)});
  }
  table.print();
  std::printf("\nExpected shape: low B_TH reacts late (QoS loss persists); high B_TH\n"
              "replicates eagerly (more data traffic, destination rejects rise because\n"
              "destinations must also clear B_TH).\n");
  return 0;
}
