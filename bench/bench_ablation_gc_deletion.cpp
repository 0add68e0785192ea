// Ablation A6 — replica-deletion thresholds (§III.B): "if the threshold is
// set too low, it may slacken the data deletion and degrade the efficiency
// of resource utilization; if it is set too high, too many operations back
// and forth between data replication and deletion will result in
// significant system overhead." Runs Rep(1,8) (which grows replicas) with
// the GC enabled at different idle thresholds and measures storage kept,
// bytes reclaimed, replicate/delete churn and the QoS cost.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A6 — GC idle-threshold sweep, Rep(1,8) + deletion",
                        "storage reclaimed vs QoS cost (soft RT, (1,0,0), 256 users)", args);

  AsciiTable table{"GC sweep (idle threshold; 'off' = no GC)"};
  table.set_header({"idle thr", "soft R_OA", "final replicas", "copies", "gc deletes",
                    "GiB reclaimed", "churn (copy+del)"});
  CsvWriter csv = bench::open_csv(args, {"idle_threshold_s", "overallocate_ratio",
                                         "final_replicas", "copies", "gc_deletes",
                                         "bytes_reclaimed"});

  const std::vector<double> thresholds =
      args.quick ? std::vector<double>{-1.0, 600.0}
                 : std::vector<double>{-1.0, 120.0, 300.0, 600.0, 1800.0};
  bench::CellSweep sweep{args};
  for (const double thr : thresholds) {
    exp::ExperimentParams params;
    params.users = args.cfg.get_count("users", 256);
    params.mode = core::AllocationMode::kSoft;
    params.policy = core::PolicyWeights::p100();
    params.replication = core::ReplicationConfig::rep(1, 8);
    if (thr >= 0.0) {
      params.deletion.enabled = true;
      params.deletion.min_replicas = 3;
      params.deletion.idle_threshold = SimTime::seconds(thr);
      params.deletion.scan_interval = SimTime::seconds(60.0);
    }
    sweep.submit(params);
  }
  sweep.run();

  std::size_t cell = 0;
  for (const double thr : thresholds) {
    const exp::ExperimentResult& r = sweep.result(cell++);
    const std::string label = thr < 0.0 ? "off" : format_double(thr, 0) + "s";
    table.add_row({label, format_percent(r.overallocate_ratio, 2),
                   std::to_string(r.final_total_replicas), std::to_string(r.copies_completed),
                   std::to_string(r.gc_deletes),
                   format_double(static_cast<double>(r.gc_bytes_reclaimed) /
                                     (1024.0 * 1024.0 * 1024.0),
                                 2),
                   std::to_string(r.copies_completed + r.gc_deletes + r.self_deletes)});
    csv.row({label, format_double(r.overallocate_ratio, 6),
             std::to_string(r.final_total_replicas), std::to_string(r.copies_completed),
             std::to_string(r.gc_deletes), std::to_string(r.gc_bytes_reclaimed)});
  }
  table.print();
  std::printf("\nExpected shape: aggressive thresholds (120 s) reclaim the most storage but\n"
              "churn replicas the replication machinery just paid for; lax thresholds keep\n"
              "surplus copies around. The QoS metric should stay near the no-GC row as long\n"
              "as min_age and the replication cooldown prevent replicate/delete thrash.\n");
  return 0;
}
