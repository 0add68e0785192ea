// EC-vs-replication differential (ROADMAP item 4).
//
// Runs the identical seeded workload twice — once under the replication-3
// default and once under EC(4,2) stripes — and renders both runs side by
// side: request counts must agree exactly (the layouts see the same arrival
// pattern), every EC read must go through the shard read path, and the EC
// run must occupy strictly less disk than the replicated one (1.5x raw
// overhead against 3x; per-file shard padding keeps the ratio just under 2).
//
// The binary emits every comparison axis as an exact JSON metric (the runs
// are deterministic across repeats and jobs= values) and exits
// non-zero unless the storage win and the workload agreement both hold —
// the CI-gated claim for the ec-smoke job.
#include "bench_common.hpp"
#include "storage/stripe_layout.hpp"

namespace {

using namespace sqos;

exp::ExperimentParams layout_params(const bench::BenchArgs& args,
                                    storage::LayoutPolicy layout) {
  exp::ExperimentParams params;
  params.layout = layout;
  params.users = args.cfg.get_count("users", args.quick ? 64 : 128);
  workload::PatternParams pattern;
  pattern.users = params.users;
  pattern.duration = SimTime::minutes(args.quick ? 20.0 : 60.0);
  params.pattern = pattern;
  return params;
}

void record_ec_json(const char* run, const exp::ExperimentResult& r) {
  bench::JsonSink& sink = bench::json_sink();
  if (sink.path.empty()) return;
  const std::string base = std::string{"ec_vs_rep."} + run + ".";
  auto& rep = sink.report;
  rep.add(base + "storage_bytes", static_cast<double>(r.storage_bytes_used), "bytes",
          MetricGoal::kExact);
  rep.add(base + "ec_reads", static_cast<double>(r.ec_reads), "", MetricGoal::kExact);
  rep.add(base + "ec_degraded_reads", static_cast<double>(r.ec_degraded_reads), "",
          MetricGoal::kExact);
  rep.add(base + "ec_failed_reads", static_cast<double>(r.ec_failed_reads), "",
          MetricGoal::kExact);
  rep.add(base + "stripes_degraded", static_cast<double>(r.stripes_degraded), "",
          MetricGoal::kExact);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("EC(4,2) vs replication-3 differential",
                        "storage bytes and workload agreement on identical seeds", args);

  bench::CellSweep sweep{args};
  const std::size_t rep_cell =
      sweep.submit(layout_params(args, storage::LayoutPolicy::replication()));
  const std::size_t ec_cell =
      sweep.submit(layout_params(args, storage::LayoutPolicy::erasure(4, 2)));
  sweep.run();

  const exp::ExperimentResult& rep = sweep.result(rep_cell);
  const exp::ExperimentResult& ec = sweep.result(ec_cell);

  std::printf("%-12s %10s %10s %8s %9s %9s %16s\n", "layout", "requests", "completed",
              "failed", "ec_reads", "degraded", "storage_bytes");
  for (const auto& [name, r] : {std::pair<const char*, const exp::ExperimentResult*>{
                                    "replication", &rep},
                                {"ec:4,2", &ec}}) {
    std::printf("%-12s %10llu %10llu %8llu %9llu %9llu %16llu\n", name,
                static_cast<unsigned long long>(r->requests),
                static_cast<unsigned long long>(r->completed),
                static_cast<unsigned long long>(r->failed),
                static_cast<unsigned long long>(r->ec_reads),
                static_cast<unsigned long long>(r->ec_degraded_reads),
                static_cast<unsigned long long>(r->storage_bytes_used));
  }
  const double ratio = ec.storage_bytes_used > 0
                           ? static_cast<double>(rep.storage_bytes_used) /
                                 static_cast<double>(ec.storage_bytes_used)
                           : 0.0;
  std::printf("storage ratio (replication / ec): %.4f\n", ratio);

  record_ec_json("replication", rep);
  record_ec_json("ec", ec);
  if (bench::JsonSink& sink = bench::json_sink(); !sink.path.empty()) {
    sink.report.add("ec_vs_rep.storage_ratio", ratio, "x", MetricGoal::kExact);
  }

  CsvWriter csv = bench::open_csv(
      args, {"layout", "requests", "completed", "failed", "ec_reads", "ec_degraded_reads",
             "storage_bytes"});
  for (const auto& [name, r] : {std::pair<const char*, const exp::ExperimentResult*>{
                                    "replication", &rep},
                                {"ec:4,2", &ec}}) {
    csv.row({name, std::to_string(r->requests), std::to_string(r->completed),
             std::to_string(r->failed), std::to_string(r->ec_reads),
             std::to_string(r->ec_degraded_reads), std::to_string(r->storage_bytes_used)});
  }

  // The CI-gated claims: identical arrivals, every EC read on the shard
  // path, none failed, and a strict storage win.
  if (rep.requests != ec.requests) {
    std::fprintf(stderr, "FAIL: request counts diverge (rep=%llu ec=%llu)\n",
                 static_cast<unsigned long long>(rep.requests),
                 static_cast<unsigned long long>(ec.requests));
    return 1;
  }
  if (rep.ec_reads != 0 || ec.ec_reads != ec.completed || ec.ec_failed_reads != 0) {
    std::fprintf(stderr,
                 "FAIL: EC read accounting broken (rep.ec_reads=%llu ec.ec_reads=%llu "
                 "ec.completed=%llu ec.ec_failed_reads=%llu)\n",
                 static_cast<unsigned long long>(rep.ec_reads),
                 static_cast<unsigned long long>(ec.ec_reads),
                 static_cast<unsigned long long>(ec.completed),
                 static_cast<unsigned long long>(ec.ec_failed_reads));
    return 1;
  }
  if (ec.storage_bytes_used >= rep.storage_bytes_used) {
    std::fprintf(stderr,
                 "FAIL: EC(4,2) did not reduce storage (rep=%llu ec=%llu bytes)\n",
                 static_cast<unsigned long long>(rep.storage_bytes_used),
                 static_cast<unsigned long long>(ec.storage_bytes_used));
    return 1;
  }
  return 0;
}
