// Table V — average fail rate with dynamic replication in firm real-time
// allocation: replication strategy x {(0,0,0), (1,0,0)}, 256 users.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Table V — fail rate with dynamic replication, firm RT",
                        "failed opens / total opens, 256 users", args);

  const std::size_t users = args.cfg.get_count("users", args.quick ? 128 : 256);
  const double paper[4][2] = {{15.62, 11.10}, {3.05, 1.20}, {3.50, 1.17}, {2.28, 1.50}};

  const std::vector<core::PolicyWeights> policies{core::PolicyWeights::random(),
                                                  core::PolicyWeights::p100()};
  const auto strategies = bench::strategy_sweep();

  AsciiTable table{"Table V (measured; paper value in brackets)"};
  table.set_header({"strategy", "(0,0,0)", "(1,0,0)"});
  CsvWriter csv = bench::open_csv(args, {"strategy", "policy", "fail_rate"});

  bench::CellSweep sweep{args};
  std::vector<std::vector<std::size_t>> cells(strategies.size());
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      exp::ExperimentParams params;
      params.users = users;
      params.mode = core::AllocationMode::kFirm;
      params.policy = policies[pi];
      params.replication = strategies[si];
      cells[si].push_back(sweep.submit(params));
    }
  }
  sweep.run();

  for (std::size_t si = 0; si < strategies.size(); ++si) {
    const char* names[] = {"Static replication", "Baseline", "Rep(1, 8)", "Rep(1, 3)"};
    std::vector<std::string> row{names[si]};
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const exp::ExperimentResult& r = sweep.result(cells[si][pi]);
      row.push_back(format_percent(r.fail_rate, 2) + " [" + format_double(paper[si][pi], 2) +
                    "%]");
      csv.row({strategies[si].strategy_name(), policies[pi].to_string(),
               format_double(r.fail_rate, 6)});
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nHeadline claim (§VI.C.2): Rep(1,3)+(1,0,0) vs static+(1,0,0) reduces the\n"
              "fail rate by ~86%% in the paper; the measured reduction is printed above.\n");
  return 0;
}
