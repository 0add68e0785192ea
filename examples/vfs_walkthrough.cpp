// FUSE-callback walkthrough: the paper implements the DFSC as a FUSE file
// system where readdir performs the MM resource-list query, open runs the
// CFP negotiation, read drives the transfer and release frees the
// allocation (§III.A.1). This example exercises exactly that callback
// surface through dfs::VfsAdapter.
//
// Usage: vfs_walkthrough [seed=1]
#include <cstdio>

#include "dfs/cluster.hpp"
#include "dfs/vfs_adapter.hpp"
#include "util/config.hpp"
#include "workload/placement.hpp"
#include "workload/video_catalog.hpp"

int main(int argc, char** argv) {
  using namespace sqos;

  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  if (const Status known = parsed.value().require_known({"seed"}); !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(parsed.value().get_int("seed", 1));

  Rng rng{seed};
  workload::CatalogParams catalog_params;
  catalog_params.file_count = 5;
  Rng catalog_rng = rng.fork("catalog");
  dfs::FileDirectory directory = workload::generate_catalog(catalog_params, catalog_rng);

  dfs::ClusterConfig cfg;
  cfg.machines.push_back(dfs::MachineSpec{"pm1", Bandwidth::mbps(128.0)});
  cfg.rms.push_back(dfs::RmSpec{"RM1", Bandwidth::mbps(64.0), Bytes::gib(8.0), 0});
  cfg.rms.push_back(dfs::RmSpec{"RM2", Bandwidth::mbps(64.0), Bytes::gib(8.0), 0});
  cfg.client_count = 1;
  cfg.mode = core::AllocationMode::kFirm;
  cfg.seed = seed;

  auto built = dfs::Cluster::build(std::move(cfg), std::move(directory));
  if (!built.is_ok()) {
    std::fprintf(stderr, "cluster build failed: %s\n", built.status().to_string().c_str());
    return 1;
  }
  dfs::Cluster& cluster = *built.value();
  Rng placement_rng = rng.fork("placement");
  workload::PlacementParams placement;
  placement.replicas = 2;
  if (const Status s = workload::place_static_replicas(cluster, placement, placement_rng);
      !s.is_ok()) {
    std::fprintf(stderr, "placement failed: %s\n", s.to_string().c_str());
    return 1;
  }
  cluster.start();

  dfs::VfsAdapter vfs{cluster.client(0), cluster.mm(), cluster.directory(),
                      cluster.simulator()};

  // readdir -> the MM resource-list query.
  std::printf("$ ls /dfs\n");
  vfs.readdir([](std::vector<std::string> names) {
    for (const auto& n : names) std::printf("  %s\n", n.c_str());
  });
  cluster.simulator().run();

  // getattr -> metadata lookup.
  const auto meta = vfs.getattr("video-0001");
  if (!meta.is_ok()) {
    std::fprintf(stderr, "getattr failed: %s\n", meta.status().to_string().c_str());
    return 1;
  }
  std::printf("\n$ stat /dfs/video-0001\n  size %s, bitrate %s, duration %s\n",
              meta.value().size.to_string().c_str(), meta.value().bitrate.to_string().c_str(),
              meta.value().duration().to_string().c_str());

  // open -> CFP fan-out + resource selection + allocation.
  std::printf("\n$ open /dfs/video-0001\n");
  std::uint64_t fd = 0;
  vfs.open("video-0001", [&](Result<std::uint64_t> r) {
    if (r.is_ok()) {
      fd = r.value();
      std::printf("  negotiated; fd=%llu\n", static_cast<unsigned long long>(fd));
    } else {
      std::printf("  open failed: %s\n", r.status().to_string().c_str());
    }
  });
  cluster.simulator().run();
  if (fd == 0) return 1;
  std::printf("  serving RM allocation now: RM1=%s RM2=%s\n",
              cluster.rm(0).allocated().to_string().c_str(),
              cluster.rm(1).allocated().to_string().c_str());

  // read -> paced by the allocated bandwidth.
  std::printf("\n$ dd if=/dfs/video-0001 bs=1M count=3   (paced at the file bitrate)\n");
  for (int chunk = 0; chunk < 3; ++chunk) {
    const SimTime before = cluster.simulator().now();
    vfs.read(fd, Bytes::mib(1.0), [&, before](Result<Bytes> r) {
      std::printf("  read %s in %.2fs of simulated time\n",
                  r.value().to_string().c_str(),
                  (cluster.simulator().now() - before).as_seconds());
    });
    cluster.simulator().run();
  }

  // release -> free the reservation.
  std::printf("\n$ close fd=%llu\n", static_cast<unsigned long long>(fd));
  vfs.release(fd);
  cluster.simulator().run();
  std::printf("  allocations after release: RM1=%s RM2=%s\n",
              cluster.rm(0).allocated().to_string().c_str(),
              cluster.rm(1).allocated().to_string().c_str());

  // create + write + close -> the write path: placement is negotiated with
  // the same CFP machinery, the replica becomes durable at close.
  std::printf("\n$ cp upload.mp4 /dfs/upload.mp4   (create/write/close)\n");
  vfs.attach_cluster(&cluster);
  std::uint64_t wfd = 0;
  vfs.create("upload.mp4", Bandwidth::mbps(3.0), SimTime::seconds(20.0),
             [&](Result<std::uint64_t> r) {
               if (r.is_ok()) {
                 wfd = r.value();
                 std::printf("  created; fd=%llu, write bandwidth reserved\n",
                             static_cast<unsigned long long>(wfd));
               } else {
                 std::printf("  create failed: %s\n", r.status().to_string().c_str());
               }
             });
  cluster.simulator().run();
  if (wfd == 0) return 1;
  bool eof = false;
  while (!eof) {
    vfs.write(wfd, Bytes::mib(2.0), [&](Result<Bytes> r) {
      eof = r.is_ok() && r.value().count() == 0;
    });
    cluster.simulator().run();
  }
  vfs.release(wfd);  // fully written -> commits
  cluster.simulator().run();
  std::printf("  committed; replicas of upload.mp4 at the MM: %zu\n",
              cluster.mm().replica_count(vfs.getattr("upload.mp4").value().id));

  std::printf("\n$ ls /dfs   (the new file is visible)\n");
  vfs.readdir([](std::vector<std::string> names) {
    for (const auto& n : names) std::printf("  %s\n", n.c_str());
  });
  cluster.simulator().run();
  return 0;
}
