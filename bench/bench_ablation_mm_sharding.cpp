// Ablation A7 — matchmaker scalability via DHT sharding (§VI.A: "a
// distributed MM can be achieved by a DHT"). Measures the peak per-shard
// matchmaker load as the MM is partitioned over more shards, verifying that
// QoS outcomes are unchanged while the single-MM bottleneck disappears.
#include <algorithm>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sqos;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_preamble("Ablation A7 — MM sharding (DHT) sweep",
                        "per-shard matchmaker load vs shard count (firm RT, (1,0,0))", args);

  AsciiTable table{"MM sharding sweep (256 users, Rep(1,3))"};
  table.set_header({"shards", "fail rate", "total MM msgs", "max shard msgs", "balance",
                    "total control msgs"});
  CsvWriter csv = bench::open_csv(args, {"shards", "fail_rate", "mm_messages",
                                         "max_shard_messages", "control_messages"});

  const std::vector<std::size_t> shard_counts =
      args.quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  bench::CellSweep sweep{args};
  for (const std::size_t shards : shard_counts) {
    dfs::ClusterConfig cluster = exp::paper_cluster_config();
    cluster.mm_shards = shards;

    exp::ExperimentParams params;
    params.users = args.cfg.get_count("users", 256);
    params.mode = core::AllocationMode::kFirm;
    params.policy = core::PolicyWeights::p100();
    params.replication = core::ReplicationConfig::rep(1, 3);
    params.cluster = cluster;
    sweep.submit(params);
  }
  sweep.run();

  for (std::size_t si = 0; si < shard_counts.size(); ++si) {
    const std::size_t shards = shard_counts[si];
    const exp::ExperimentResult& r = sweep.result(si);

    const std::uint64_t max_shard =
        r.mm_shard_messages.empty()
            ? 0
            : *std::max_element(r.mm_shard_messages.begin(), r.mm_shard_messages.end());
    const double max_share =
        r.mm_messages == 0 ? 0.0
                           : static_cast<double>(max_shard) / static_cast<double>(r.mm_messages);
    table.add_row({std::to_string(shards), format_percent(r.fail_rate, 2),
                   std::to_string(r.mm_messages), std::to_string(max_shard),
                   format_percent(max_share, 0), std::to_string(r.control_messages)});
    csv.row({std::to_string(shards), format_double(r.fail_rate, 6),
             std::to_string(r.mm_messages), std::to_string(max_shard),
             std::to_string(r.control_messages)});
  }
  table.print();
  std::printf("\nExpected shape: the fail rate is invariant in the shard count (routing is\n"
              "transparent) while the per-shard share of matchmaker messages drops ~1/N —\n"
              "the DHT removes the central-matchmaker bottleneck the ECNP model worries\n"
              "about, at no QoS cost.\n");
  return 0;
}
