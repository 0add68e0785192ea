// Table III — fail rate on average in firm real-time allocation:
// selection policies (α,β,γ) x number of users, static replication.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::run_grid_table(
      args, {.experiment = "Table III — fail rate, firm real-time, static replication",
             .metric = "failed opens / total opens",
             .title = "Table III (measured; paper value in brackets)",
             .mode = core::AllocationMode::kFirm,
             .rows = bench::policy_axis(core::PolicyWeights::paper_set()),
             .cols = bench::user_axis(args),
             .paper = {{0.070, 1.344, 7.028, 15.525},
                       {0.000, 0.448, 3.825, 11.087},
                       {0.000, 0.310, 4.065, 11.236},
                       {0.000, 0.483, 3.604, 11.005},
                       {0.000, 0.345, 4.045, 11.038}},
             .decimals = 3});
}
