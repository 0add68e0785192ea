// Shared fixtures: a small deterministic cluster and catalog for DFS tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dfs/cluster.hpp"
#include "dfs/file_types.hpp"

namespace sqos::testing {

/// A tiny catalog with fully controlled metadata. File k (1-based) has
/// bitrate `base_mbps * k` and duration 100 s.
inline dfs::FileDirectory tiny_catalog(std::size_t files = 4, double base_mbps = 1.0) {
  std::vector<dfs::FileMeta> metas;
  for (std::size_t k = 1; k <= files; ++k) {
    dfs::FileMeta f;
    f.id = k;
    f.name = "file-" + std::to_string(k);
    f.bitrate = Bandwidth::mbps(base_mbps * static_cast<double>(k));
    f.size = Bytes::of(static_cast<std::int64_t>(f.bitrate.bps() * 100.0));  // 100 s
    f.popularity = 1.0 / static_cast<double>(k);
    metas.push_back(std::move(f));
  }
  return dfs::FileDirectory{std::move(metas)};
}

/// A 2-machine / 3-RM / 1-client cluster with deterministic (jitter-free)
/// latency: RM1 is large (40 Mbit/s), RM2 and RM3 are small (10 Mbit/s).
inline dfs::ClusterConfig small_cluster_config() {
  dfs::ClusterConfig cfg;
  cfg.machines.push_back(dfs::MachineSpec{"m1", Bandwidth::mbps(60.0)});
  cfg.machines.push_back(dfs::MachineSpec{"m2", Bandwidth::mbps(60.0)});
  cfg.rms.push_back(dfs::RmSpec{"RM1", Bandwidth::mbps(40.0), Bytes::gib(1.0), 0});
  cfg.rms.push_back(dfs::RmSpec{"RM2", Bandwidth::mbps(10.0), Bytes::gib(1.0), 1});
  cfg.rms.push_back(dfs::RmSpec{"RM3", Bandwidth::mbps(10.0), Bytes::gib(1.0), 1});
  cfg.client_count = 1;
  cfg.latency.jitter_mean = SimTime::zero();
  cfg.seed = 42;
  return cfg;
}

inline std::unique_ptr<dfs::Cluster> make_small_cluster(
    dfs::ClusterConfig cfg = small_cluster_config(),
    dfs::FileDirectory directory = tiny_catalog()) {
  auto built = dfs::Cluster::build(std::move(cfg), std::move(directory));
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  return std::move(built).take();
}

/// 6 small RMs on two machines, one client, jitter-free: enough distinct
/// hosts for an EC(4,2) stripe with full anti-affinity.
inline dfs::ClusterConfig six_rm_config() {
  dfs::ClusterConfig cfg;
  cfg.machines.push_back(dfs::MachineSpec{"m1", Bandwidth::mbps(60.0)});
  cfg.machines.push_back(dfs::MachineSpec{"m2", Bandwidth::mbps(60.0)});
  for (int r = 1; r <= 6; ++r) {
    cfg.rms.push_back(dfs::RmSpec{"RM" + std::to_string(r), Bandwidth::mbps(10.0),
                                  Bytes::gib(1.0), static_cast<std::size_t>((r - 1) % 2)});
  }
  cfg.client_count = 1;
  cfg.latency.jitter_mean = SimTime::zero();
  cfg.layout = storage::LayoutPolicy::erasure(4, 2);
  cfg.seed = 42;
  return cfg;
}

/// Fresh EC(4,2) cluster with file 1 striped across RM0..RM5 (shard s on
/// RM s), registration settled.
inline std::unique_ptr<dfs::Cluster> make_ec_cluster() {
  auto cluster = make_small_cluster(six_rm_config(), tiny_catalog(1));
  const std::vector<std::size_t> rms{0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(cluster->place_stripe(1, 4, 2, rms).is_ok());
  cluster->start();
  cluster->simulator().run_until(cluster->simulator().now() + SimTime::seconds(1.0));
  return cluster;
}

}  // namespace sqos::testing
