// Table IV — average over-allocate ratio with dynamic replication in soft
// real-time allocation: replication strategy x selection policy, 256 users.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::run_grid_table(
      args, {.experiment = "Table IV — over-allocate ratio with dynamic replication, soft RT",
             .metric = "R_OA, 256 users",
             .title = "Table IV (measured; paper value in brackets)",
             .mode = core::AllocationMode::kSoft,
             .rows = bench::strategy_axis(),
             .cols = bench::policy_axis(core::PolicyWeights::paper_set()),
             .paper = {{24.60, 9.77, 9.79, 9.54, 10.01},
                       {16.60, 1.44, 1.30, 2.86, 2.46},
                       {15.67, 1.50, 1.47, 1.63, 2.40},
                       {13.37, 2.17, 2.11, 1.38, 2.86}},
             .decimals = 2});
}
