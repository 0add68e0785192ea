// Table VI — average over-allocate ratio of Rep(1,3) with different
// destination selection strategies in soft real-time allocation.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::run_grid_table(
      args,
      {.experiment = "Table VI — Rep(1,3) destination selection, soft RT",
       .metric = "R_OA, 256 users",
       .title = "Table VI (measured; paper value in brackets)",
       .mode = core::AllocationMode::kSoft,
       .rows = bench::destination_axis(),
       .cols = bench::policy_axis({core::PolicyWeights::random(), core::PolicyWeights::p100()}),
       .paper = {{13.37, 2.17}, {10.41, 1.47}, {10.39, 1.28}},
       .decimals = 2});
}
