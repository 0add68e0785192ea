// Table IV — average over-allocate ratio with dynamic replication in soft
// real-time allocation: replication strategy x selection policy, 256 users.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Table IV — over-allocate ratio with dynamic replication, soft RT",
                        "R_OA, 256 users", args);

  const std::size_t users = args.cfg.get_count("users", args.quick ? 128 : 256);
  const double paper[4][5] = {{24.60, 9.77, 9.79, 9.54, 10.01},
                              {16.60, 1.44, 1.30, 2.86, 2.46},
                              {15.67, 1.50, 1.47, 1.63, 2.40},
                              {13.37, 2.17, 2.11, 1.38, 2.86}};

  const auto policies = core::PolicyWeights::paper_set();
  const auto strategies = bench::strategy_sweep();

  AsciiTable table{"Table IV (measured; paper value in brackets)"};
  std::vector<std::string> header{"strategy"};
  for (const auto& p : policies) header.push_back(p.to_string());
  table.set_header(header);
  CsvWriter csv = bench::open_csv(args, {"strategy", "policy", "overallocate_ratio"});

  bench::CellSweep sweep{args};
  std::vector<std::vector<std::size_t>> cells(strategies.size());
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      exp::ExperimentParams params;
      params.users = users;
      params.mode = core::AllocationMode::kSoft;
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
      row.push_back(format_percent(r.overallocate_ratio, 2) + " [" +
                    format_double(paper[si][pi], 2) + "%]");
      csv.row({strategies[si].strategy_name(), policies[pi].to_string(),
               format_double(r.overallocate_ratio, 6)});
    }
    table.add_row(std::move(row));
  }
  table.print();
  return 0;
}
