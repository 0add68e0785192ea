// Video-hotspot scenario (the paper's motivating workload): a small set of
// videos goes viral, overloading the RMs that hold their replicas. The
// example drives the cluster through the low-level public API — no
// experiment runner — and shows dynamic replication migrating the hot files
// toward the extra-large providers while the flash crowd is still arriving.
//
// Usage: video_hotspot [replication=1] [viewers=120] [seed=1]
#include <cstdio>

#include "core/replication_config.hpp"
#include "dfs/cluster.hpp"
#include "exp/paper_setup.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workload/placement.hpp"
#include "workload/video_catalog.hpp"

int main(int argc, char** argv) {
  using namespace sqos;

  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const Config cfg = std::move(parsed).take();
  if (const Status known = cfg.require_known({"replication", "viewers", "seed"}); !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }
  const bool replication = cfg.get_bool("replication", true);
  const int viewers = static_cast<int>(cfg.get_count("viewers", 120));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  // 1. Build the paper's 16-RM topology with a 200-video catalog.
  Rng rng{seed};
  workload::CatalogParams catalog_params;
  catalog_params.file_count = 200;
  Rng catalog_rng = rng.fork("catalog");
  dfs::FileDirectory directory = workload::generate_catalog(catalog_params, catalog_rng);

  dfs::ClusterConfig cluster_cfg = exp::paper_cluster_config();
  cluster_cfg.mode = core::AllocationMode::kSoft;
  cluster_cfg.policy = core::PolicyWeights::p100();
  if (replication) cluster_cfg.replication = core::ReplicationConfig::rep(1, 3);
  cluster_cfg.seed = seed;

  auto built = dfs::Cluster::build(std::move(cluster_cfg), std::move(directory));
  if (!built.is_ok()) {
    std::fprintf(stderr, "cluster build failed: %s\n", built.status().to_string().c_str());
    return 1;
  }
  dfs::Cluster& cluster = *built.value();

  Rng placement_rng = rng.fork("placement");
  workload::PlacementParams placement;
  if (const Status s = workload::place_static_replicas(cluster, placement, placement_rng);
      !s.is_ok()) {
    std::fprintf(stderr, "placement failed: %s\n", s.to_string().c_str());
    return 1;
  }
  cluster.start();

  // 2. The flash crowd: `viewers` users open the same three videos over ten
  //    minutes, routed round-robin over the 8 DFSCs.
  const dfs::FileId hot[3] = {1, 2, 3};
  Rng arrivals = rng.fork("arrivals");
  for (int v = 0; v < viewers; ++v) {
    const SimTime at = SimTime::seconds(arrivals.uniform(1.0, 600.0));
    const dfs::FileId file = hot[arrivals.next_below(3)];
    const std::size_t client = static_cast<std::size_t>(v) % cluster.client_count();
    cluster.simulator().schedule_at(at, [&cluster, client, file] {
      cluster.client(client).stream_file(file);
    });
  }

  // 3. Watch which RMs hold the hot replicas before and after.
  const auto print_holders = [&](const char* label) {
    std::printf("%s\n", label);
    for (const dfs::FileId f : hot) {
      std::printf("  %-10s ->", cluster.directory().get(f).name.c_str());
      for (const net::NodeId holder : cluster.mm().holders_of(f)) {
        std::printf(" %s", cluster.network().node_name(holder).c_str());
      }
      std::printf("\n");
    }
  };
  print_holders("Replica holders before the flash crowd:");

  cluster.simulator().run();

  std::printf("\n");
  print_holders("Replica holders after the flash crowd:");

  const auto& rep = cluster.replication().counters();
  std::printf("\nDynamic replication: %llu rounds, %llu copies (%llu migrations), "
              "%llu destination rejects\n",
              static_cast<unsigned long long>(rep.rounds_started),
              static_cast<unsigned long long>(rep.copies_completed),
              static_cast<unsigned long long>(rep.self_deletes),
              static_cast<unsigned long long>(rep.destination_rejects));

  AsciiTable table{"\nPer-RM outcome (soft real-time)"};
  table.set_header({"RM", "cap", "R_OA"});
  for (std::size_t i = 0; i < cluster.rm_count(); ++i) {
    dfs::ResourceManager& rm = cluster.rm(i);
    rm.ledger().advance_to(cluster.simulator().now());
    table.add_row({rm.name(), rm.cap().to_string(),
                   format_percent(rm.ledger().overallocate_ratio(), 2)});
  }
  table.print();
  std::printf("\nRe-run with replication=0 to see the hotspot pin the holder RMs above\n"
              "their caps for the whole run.\n");
  return 0;
}
