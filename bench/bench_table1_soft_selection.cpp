// Table I — over-allocate ratio in soft real-time allocation:
// selection policies (α,β,γ) x number of users, static replication.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::run_grid_table(
      args, {.experiment = "Table I — over-allocate ratio, soft real-time, static replication",
             .metric = "R_OA = S_OA / S_TA aggregated over RMs",
             .title = "Table I (measured; paper value in brackets)",
             .mode = core::AllocationMode::kSoft,
             .rows = bench::policy_axis(core::PolicyWeights::paper_set()),
             .cols = bench::user_axis(args),
             .paper = {{1.447, 6.539, 16.325, 24.595},
                       {0.000, 0.059, 2.070, 9.771},
                       {0.000, 0.043, 2.102, 9.793},
                       {0.000, 0.062, 2.281, 9.543},
                       {0.000, 0.063, 2.215, 10.007}},
             .decimals = 3});
}
