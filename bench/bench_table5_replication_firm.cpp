// Table V — average fail rate with dynamic replication in firm real-time
// allocation: replication strategy x {(0,0,0), (1,0,0)}, 256 users.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::run_grid_table(
      args,
      {.experiment = "Table V — fail rate with dynamic replication, firm RT",
       .metric = "failed opens / total opens, 256 users",
       .title = "Table V (measured; paper value in brackets)",
       .mode = core::AllocationMode::kFirm,
       .rows = bench::strategy_axis(),
       .cols = bench::policy_axis({core::PolicyWeights::random(), core::PolicyWeights::p100()}),
       .paper = {{15.62, 11.10}, {3.05, 1.20}, {3.50, 1.17}, {2.28, 1.50}},
       .decimals = 2,
       .epilogue = "\nHeadline claim (§VI.C.2): Rep(1,3)+(1,0,0) vs static+(1,0,0) reduces the\n"
                   "fail rate by ~86% in the paper; the measured reduction is printed above.\n"});
}
