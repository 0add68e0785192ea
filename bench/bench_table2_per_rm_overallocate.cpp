// Table II — over-allocate ratio of each RM in soft real-time allocation
// with 256 users (the asterisked RMs are the extra-large ones).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Table II — per-RM over-allocate ratio, soft real-time, 256 users",
                        "R_OA per RM; RM1/RM9 are the extra-large providers", args);

  const std::size_t users = args.cfg.get_count("users", args.quick ? 128 : 256);
  CsvWriter csv = bench::open_csv(args, {"policy", "rm", "overallocate_ratio"});

  const auto policies = core::PolicyWeights::paper_set();

  bench::CellSweep sweep{args};
  std::vector<std::size_t> cells;
  for (const auto& policy : policies) {
    exp::ExperimentParams params;
    params.users = users;
    params.mode = core::AllocationMode::kSoft;
    params.policy = policy;
    cells.push_back(sweep.submit(params));
  }
  sweep.run();

  std::vector<std::vector<stats::RmQosSummary>> per_policy;
  for (const std::size_t cell : cells) per_policy.push_back(sweep.result(cell).per_rm);

  // Two half-tables like the paper (RM1-8, RM9-16).
  for (int half = 0; half < 2; ++half) {
    AsciiTable table{half == 0 ? "Table II (RM1-RM8)" : "Table II (RM9-RM16)"};
    std::vector<std::string> header{"policy"};
    for (std::size_t rm = static_cast<std::size_t>(half) * 8; rm < static_cast<std::size_t>(half + 1) * 8; ++rm) {
      std::string name = "RM" + std::to_string(rm + 1);
      if (rm == 0 || rm == 8) name += "(*)";
      header.push_back(std::move(name));
    }
    table.set_header(header);
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      std::vector<std::string> row{policies[pi].to_string()};
      for (std::size_t rm = static_cast<std::size_t>(half) * 8; rm < static_cast<std::size_t>(half + 1) * 8; ++rm) {
        row.push_back(format_percent(per_policy[pi][rm].overallocate_ratio));
        csv.row({policies[pi].to_string(), per_policy[pi][rm].name,
                 format_double(per_policy[pi][rm].overallocate_ratio, 6)});
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }

  std::printf("Expected shape (paper): extra-large RMs at ~0%%; random policy (0,0,0)\n"
              "suffers the largest per-RM ratios; every (1,*,*) policy cuts them sharply.\n");
  return 0;
}
