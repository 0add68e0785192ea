// Ablation A12 — client-side holder caching. The ECNP exploration round trip
// costs one MM query per open; popular files are opened over and over, so a
// short-TTL client cache trades matchmaker load and negotiation latency
// against staleness (a cached list misses replication-created replicas
// until it expires). Sweeps the TTL under Rep(1,3), where replicas actually
// move.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A12 — holder-cache TTL sweep, Rep(1,3), (1,0,0)",
                        "matchmaker load & latency vs staleness (256 users)", args);

  AsciiTable table{"Holder-cache sweep"};
  table.set_header({"TTL", "firm fail", "soft R_OA", "MM msgs", "negotiate ms"});
  CsvWriter csv =
      bench::open_csv(args, {"ttl_s", "firm_fail", "soft_roa", "mm_messages",
                             "mean_negotiation_ms"});

  const std::vector<double> ttls =
      args.quick ? std::vector<double>{0.0, 300.0}
                 : std::vector<double>{0.0, 60.0, 300.0, 1800.0, 7200.0};
  bench::CellSweep sweep{args};
  for (const double ttl : ttls) {
    dfs::ClusterConfig cluster = exp::paper_cluster_config();
    cluster.holder_cache_ttl = SimTime::seconds(ttl);

    exp::ExperimentParams params;
    params.users = args.cfg.get_count("users", 256);
    params.policy = core::PolicyWeights::p100();
    params.replication = core::ReplicationConfig::rep(1, 3);
    params.cluster = cluster;

    params.mode = core::AllocationMode::kFirm;
    sweep.submit(params);
    params.mode = core::AllocationMode::kSoft;
    sweep.submit(params);
  }
  sweep.run();

  std::size_t cell = 0;
  for (const double ttl : ttls) {
    const exp::ExperimentResult& firm = sweep.result(cell++);
    const exp::ExperimentResult& soft = sweep.result(cell++);

    const std::string label = ttl == 0.0 ? "off" : format_double(ttl, 0) + "s";
    table.add_row({label, format_percent(firm.fail_rate, 2),
                   format_percent(soft.overallocate_ratio, 2),
                   std::to_string(firm.mm_messages),
                   format_double(firm.mean_negotiation_ms, 2)});
    csv.row({format_double(ttl, 0), format_double(firm.fail_rate, 6),
             format_double(soft.overallocate_ratio, 6), std::to_string(firm.mm_messages),
             format_double(firm.mean_negotiation_ms, 4)});
  }
  table.print();
  std::printf("\nExpected shape: matchmaker load and negotiation latency drop sharply with\n"
              "the TTL (popular files dominate the opens); QoS degrades only mildly because\n"
              "stale entries are tolerated (dead holders answer has_file=false, and a\n"
              "failed open invalidates its cache entry). Very long TTLs hide the replicas\n"
              "that dynamic replication created, eroding its benefit.\n");
  return 0;
}
