// Figure 7 — comparison of the over-allocate ratio of each RM between
// static replication and Rep(1,3) (soft RT, policy (1,0,0), 256 users).
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Figure 7 — per-RM over-allocate ratio: static vs Rep(1,3)",
                        "R_OA per RM, soft RT, policy (1,0,0), 256 users", args);

  const std::size_t users = args.cfg.get_count("users", args.quick ? 128 : 256);

  bench::CellSweep sweep{args};
  for (const core::ReplicationConfig& rep :
       {core::ReplicationConfig::static_only(), core::ReplicationConfig::rep(1, 3)}) {
    exp::ExperimentParams params;
    params.users = users;
    params.mode = core::AllocationMode::kSoft;
    params.policy = core::PolicyWeights::p100();
    params.replication = rep;
    sweep.submit(params);
  }
  sweep.run();
  const exp::ExperimentResult& st = sweep.result(0);
  const exp::ExperimentResult& rep = sweep.result(1);

  CsvWriter csv = bench::open_csv(args, {"rm", "static_ratio", "rep13_ratio"});
  AsciiTable table{"Per-RM over-allocate ratio"};
  table.set_header({"RM", "static", "Rep(1,3)", "profile (s = static, r = Rep(1,3))"});
  double peak = 1e-9;
  for (std::size_t i = 0; i < st.per_rm.size(); ++i) {
    peak = std::max({peak, st.per_rm[i].overallocate_ratio, rep.per_rm[i].overallocate_ratio});
  }
  for (std::size_t i = 0; i < st.per_rm.size(); ++i) {
    const double s_ratio = st.per_rm[i].overallocate_ratio;
    const double r_ratio = rep.per_rm[i].overallocate_ratio;
    std::string cell(static_cast<std::size_t>(s_ratio / peak * 24.0), 's');
    cell += '/';
    cell += std::string(static_cast<std::size_t>(r_ratio / peak * 24.0), 'r');
    table.add_row({st.per_rm[i].name, format_percent(s_ratio), format_percent(r_ratio), cell});
    csv.row({st.per_rm[i].name, format_double(s_ratio, 6), format_double(r_ratio, 6)});
  }
  table.print();

  std::printf("\nAggregate: static %s -> Rep(1,3) %s (paper: 9.77%% -> 2.17%%, a ~78%% cut)\n",
              format_percent(st.overallocate_ratio, 2).c_str(),
              format_percent(rep.overallocate_ratio, 2).c_str());
  return 0;
}
