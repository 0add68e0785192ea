// Table VII — average fail rate of Rep(1,3) with different destination
// selection strategies in firm real-time allocation.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::run_grid_table(
      args,
      {.experiment = "Table VII — Rep(1,3) destination selection, firm RT",
       .metric = "failed opens / total opens, 256 users",
       .title = "Table VII (measured; paper value in brackets)",
       .mode = core::AllocationMode::kFirm,
       .rows = bench::destination_axis(),
       .cols = bench::policy_axis({core::PolicyWeights::random(), core::PolicyWeights::p100()}),
       .paper = {{2.28, 1.50}, {2.60, 1.20}, {3.05, 1.34}},
       .decimals = 2});
}
