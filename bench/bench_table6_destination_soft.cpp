// Table VI — average over-allocate ratio of Rep(1,3) with different
// destination selection strategies in soft real-time allocation.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Table VI — Rep(1,3) destination selection, soft RT",
                        "R_OA, 256 users", args);

  const std::size_t users = args.cfg.get_count("users", args.quick ? 128 : 256);
  const double paper[3][2] = {{13.37, 2.17}, {10.41, 1.47}, {10.39, 1.28}};

  const std::vector<core::PolicyWeights> policies{core::PolicyWeights::random(),
                                                  core::PolicyWeights::p100()};
  const core::DestinationStrategy strategies[] = {
      core::DestinationStrategy::kRandom, core::DestinationStrategy::kLargestBandwidthFirst,
      core::DestinationStrategy::kWeighted};
  const char* names[] = {"Random", "LBW designated", "Weighted"};

  AsciiTable table{"Table VI (measured; paper value in brackets)"};
  table.set_header({"destination", "(0,0,0)", "(1,0,0)"});
  CsvWriter csv = bench::open_csv(args, {"destination", "policy", "overallocate_ratio"});

  bench::CellSweep sweep{args};
  std::vector<std::vector<std::size_t>> cells(3);
  for (std::size_t si = 0; si < 3; ++si) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      exp::ExperimentParams params;
      params.users = users;
      params.mode = core::AllocationMode::kSoft;
      params.policy = policies[pi];
      params.replication = core::ReplicationConfig::rep(1, 3);
      params.replication.destination = strategies[si];
      cells[si].push_back(sweep.submit(params));
    }
  }
  sweep.run();

  for (std::size_t si = 0; si < 3; ++si) {
    std::vector<std::string> row{names[si]};
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      const exp::ExperimentResult& r = sweep.result(cells[si][pi]);
      row.push_back(format_percent(r.overallocate_ratio, 2) + " [" +
                    format_double(paper[si][pi], 2) + "%]");
      csv.row({std::string{to_string(strategies[si])}, policies[pi].to_string(),
               format_double(r.overallocate_ratio, 6)});
    }
    table.add_row(std::move(row));
  }
  table.print();
  return 0;
}
