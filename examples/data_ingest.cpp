// Data-ingest scenario: a producer continuously creates new objects in the
// namespace through the write path while consumers stream existing content —
// the paper's motivating "high-throughput data-intensive processing"
// workload (§I, MapReduce-style gathering) on top of the QoS-assured DFS.
//
// Usage: data_ingest [objects=12] [consumers=20] [replicas=2] [seed=1]
#include <cstdio>

#include "dfs/cluster.hpp"
#include "exp/paper_setup.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workload/access_pattern.hpp"
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
  if (const Status known = cfg.require_known({"objects", "consumers", "replicas", "seed"});
      !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }
  const int objects = static_cast<int>(cfg.get_count("objects", 12));
  const int consumers = static_cast<int>(cfg.get_count("consumers", 20));
  const auto replicas = cfg.get_count("replicas", 2);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  // Paper topology; 100 pre-existing videos for the consumers.
  Rng rng{seed};
  workload::CatalogParams catalog_params;
  catalog_params.file_count = 100;
  Rng catalog_rng = rng.fork("catalog");
  dfs::FileDirectory directory = workload::generate_catalog(catalog_params, catalog_rng);

  dfs::ClusterConfig cluster_cfg = exp::paper_cluster_config();
  cluster_cfg.mode = core::AllocationMode::kFirm;
  cluster_cfg.policy = core::PolicyWeights::p100();
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

  // Consumers: stream popular existing content throughout the run.
  const workload::PopularitySampler sampler{cluster.directory()};
  Rng arrivals = rng.fork("arrivals");
  int consumer_ok = 0;
  int consumer_fail = 0;
  for (int c = 0; c < consumers; ++c) {
    const SimTime at = SimTime::seconds(arrivals.uniform(1.0, 900.0));
    const dfs::FileId file = sampler.sample(arrivals);
    const std::size_t client = static_cast<std::size_t>(c) % cluster.client_count();
    cluster.simulator().schedule_at(at, [&, client, file] {
      cluster.client(client).stream_file(file, [&](const Status& s) {
        s.is_ok() ? ++consumer_ok : ++consumer_fail;
      });
    });
  }

  // Producer: every ~60 s a new object (ingest chunk) is created and written
  // with the requested replica count; each write is QoS-assured at the
  // object's bandwidth.
  int ingest_ok = 0;
  int ingest_fail = 0;
  Rng producer = rng.fork("producer");
  for (int i = 0; i < objects; ++i) {
    const dfs::FileId id = 10'000 + static_cast<dfs::FileId>(i);
    dfs::FileMeta meta;
    meta.id = id;
    meta.name = "ingest-" + std::to_string(i);
    meta.bitrate = Bandwidth::mbps(producer.uniform(2.0, 6.0));
    meta.size = Bytes::of(static_cast<std::int64_t>(meta.bitrate.bps() * 120.0));  // 2 min
    const SimTime at = SimTime::seconds(10.0 + 60.0 * i);
    cluster.simulator().schedule_at(at, [&, meta] {
      if (const Status s = cluster.add_file(meta); !s.is_ok()) {
        std::fprintf(stderr, "add_file: %s\n", s.to_string().c_str());
        ++ingest_fail;
        return;
      }
      cluster.client(0).write_file(meta.id, replicas, [&, id = meta.id,
                                                       name = meta.name](const Status& s) {
        if (s.is_ok()) {
          ++ingest_ok;
          // Read-back check: stream the object shortly after the commit has
          // reached the MM shard.
          cluster.simulator().schedule_after(SimTime::seconds(1.0), [&, id, name] {
            cluster.client(1).stream_file(id, [name](const Status& rs) {
              if (!rs.is_ok()) {
                std::fprintf(stderr, "read-back of %s failed: %s\n", name.c_str(),
                             rs.to_string().c_str());
              }
            });
          });
        } else {
          ++ingest_fail;
        }
      });
    });
  }

  cluster.simulator().run();

  std::printf("data_ingest: %d objects x %zu replicas alongside %d consumer streams\n\n",
              objects, replicas, consumers);
  AsciiTable table{"Outcome"};
  table.set_header({"flow", "ok", "failed"});
  table.add_row({"ingest writes", std::to_string(ingest_ok), std::to_string(ingest_fail)});
  table.add_row({"consumer streams", std::to_string(consumer_ok),
                 std::to_string(consumer_fail)});
  table.print();

  std::size_t ingest_replicas = 0;
  for (int i = 0; i < objects; ++i) {
    ingest_replicas += cluster.mm().replica_count(10'000 + static_cast<dfs::FileId>(i));
  }
  std::printf("\ningested replicas registered at the MM: %zu (expected ~%zu)\n",
              ingest_replicas, static_cast<std::size_t>(objects) * replicas);
  std::printf("firm invariant: no RM ever over-committed — verified by construction\n");
  return 0;
}
