// Figure 4 — the over-allocate situation in the soft real-time scenario:
// one RM's allocated bandwidth over time against its maximum (dashed line in
// the paper); the area above the cap is S_OA, everything assigned is S_TA.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  args.seeds = 1;  // a time series is per-run, not averaged
  bench::print_preamble("Figure 4 — over-allocate situation of one RM, soft RT",
                        "allocated bandwidth vs cap over time", args);

  exp::ExperimentParams params;
  params.users = args.cfg.get_count("users", 256);
  params.mode = core::AllocationMode::kSoft;
  params.policy = core::PolicyWeights::random();
  params.monitor_interval = SimTime::seconds(60.0);
  bench::CellSweep sweep{args};
  sweep.submit(params);
  sweep.run();
  const exp::ExperimentResult& r = sweep.result(0);

  // Pick the RM with the worst over-allocate ratio for the illustration.
  std::size_t worst = 0;
  for (std::size_t i = 1; i < r.per_rm.size(); ++i) {
    if (r.per_rm[i].overallocate_ratio > r.per_rm[worst].overallocate_ratio) worst = i;
  }
  const auto& series = r.rm_series[worst];
  const double cap = r.per_rm[worst].cap_bps;
  std::printf("RM with the largest over-allocation: %s (cap %.2f Mbit/s, R_OA %s)\n\n",
              r.per_rm[worst].name.c_str(), cap * 8.0 / 1e6,
              format_percent(r.per_rm[worst].overallocate_ratio).c_str());

  CsvWriter csv = bench::open_csv(args, {"time_s", "allocated_mbps", "cap_mbps"});
  std::printf("%8s  %10s  %10s  %s\n", "t (min)", "alloc Mb/s", "cap Mb/s", "profile ('|' = cap)");
  const std::size_t stride = std::max<std::size_t>(1, series.size() / 40);
  double peak = cap;
  for (const auto& pt : series) peak = std::max(peak, pt.value_bps);
  for (std::size_t i = 0; i < series.size(); i += stride) {
    const double alloc_mbps = series[i].value_bps * 8.0 / 1e6;
    const double cap_mbps = cap * 8.0 / 1e6;
    const auto bar_len = static_cast<std::size_t>(series[i].value_bps / peak * 48.0);
    const auto cap_pos = static_cast<std::size_t>(cap / peak * 48.0);
    std::string bar(std::max(bar_len, cap_pos) + 1, ' ');
    for (std::size_t b = 0; b < bar_len; ++b) bar[b] = '#';
    bar[cap_pos] = '|';
    std::printf("%8.1f  %10.2f  %10.2f  %s\n", series[i].time_s / 60.0, alloc_mbps, cap_mbps,
                bar.c_str());
  }
  for (const auto& pt : series) {
    csv.row({format_double(pt.time_s, 1), format_double(pt.value_bps * 8.0 / 1e6, 4),
             format_double(cap * 8.0 / 1e6, 4)});
  }
  std::printf("\nS_TA = %.1f MiB, S_OA = %.1f MiB, R_OA = %s\n",
              r.per_rm[worst].assigned_bytes / (1024.0 * 1024.0),
              r.per_rm[worst].overallocated_bytes / (1024.0 * 1024.0),
              format_percent(r.per_rm[worst].overallocate_ratio).c_str());
  return 0;
}
