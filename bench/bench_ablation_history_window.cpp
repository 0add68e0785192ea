// Ablation A4 — two-queue history parameters (§IV): the exchange conditions
// (sample count / expiry time) control how fresh the β-term's historical
// reference is. The paper does not sweep them; this bench does, under the
// trend-sensitive policy (1,1,0).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A4 — two-queue history window sweep, policy (1,1,0)",
                        "QoS metrics vs (sample_limit, expiry)", args);

  AsciiTable table{"History-window sweep (256 users, static replication)"};
  table.set_header({"sample limit", "expiry (s)", "soft R_OA", "firm fail"});
  CsvWriter csv = bench::open_csv(args, {"sample_limit", "expiry_s", "soft_roa", "firm_fail"});

  const std::vector<std::size_t> limits =
      args.quick ? std::vector<std::size_t>{32} : std::vector<std::size_t>{4, 16, 32, 128};
  const std::vector<double> expiries =
      args.quick ? std::vector<double>{60.0} : std::vector<double>{15.0, 60.0, 240.0};

  bench::CellSweep sweep{args};
  for (const std::size_t limit : limits) {
    for (const double expiry : expiries) {
      dfs::ClusterConfig cluster = exp::paper_cluster_config();
      cluster.history.sample_limit = limit;
      cluster.history.expiry = SimTime::seconds(expiry);

      exp::ExperimentParams params;
      params.users = args.cfg.get_count("users", 256);
      params.policy = core::PolicyWeights::p110();
      params.cluster = cluster;

      params.mode = core::AllocationMode::kSoft;
      sweep.submit(params);
      params.mode = core::AllocationMode::kFirm;
      sweep.submit(params);
    }
  }
  sweep.run();

  std::size_t cell = 0;
  for (const std::size_t limit : limits) {
    for (const double expiry : expiries) {
      const exp::ExperimentResult& soft = sweep.result(cell++);
      const exp::ExperimentResult& firm = sweep.result(cell++);

      table.add_row({std::to_string(limit), format_double(expiry, 0),
                     format_percent(soft.overallocate_ratio, 3),
                     format_percent(firm.fail_rate, 3)});
      csv.row({std::to_string(limit), format_double(expiry, 0),
               format_double(soft.overallocate_ratio, 6), format_double(firm.fail_rate, 6)});
    }
  }
  table.print();
  std::printf("\nExpected shape: the β-term contributes little on this workload (the paper\n"
              "found no noticeable improvement of (1,1,0) over (1,0,0)), so the metric is\n"
              "flat across window settings — evidence the conclusion is not an artifact of\n"
              "one window choice.\n");
  return 0;
}
