// Operations view: run a loaded cluster with dynamic replication, GC and a
// mid-run RM outage, printing the per-RM state table at intervals — the
// report an operator's dashboard would poll.
//
// Usage: cluster_monitor [users=192] [interval=900] [seed=1]
#include <cstdio>

#include "exp/paper_setup.hpp"
#include "stats/report.hpp"
#include "util/config.hpp"
#include "workload/placement.hpp"
#include "workload/request_scheduler.hpp"
#include "workload/video_catalog.hpp"

int main(int argc, char** argv) {
  using namespace sqos;

  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const Config cfg = std::move(parsed).take();
  if (const Status known = cfg.require_known({"users", "interval", "seed"}); !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }
  const auto users = cfg.get_count("users", 192);
  const double interval_s = cfg.get_double("interval", 900.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  Rng rng{seed};
  Rng catalog_rng = rng.fork("catalog");
  dfs::FileDirectory directory =
      workload::generate_catalog(exp::paper_catalog_params(), catalog_rng);

  dfs::ClusterConfig cluster_cfg = exp::paper_cluster_config();
  cluster_cfg.mode = core::AllocationMode::kSoft;
  cluster_cfg.policy = core::PolicyWeights::p100();
  cluster_cfg.replication = core::ReplicationConfig::rep(1, 3);
  cluster_cfg.deletion.enabled = true;
  cluster_cfg.seed = seed;
  auto built = dfs::Cluster::build(std::move(cluster_cfg), std::move(directory));
  if (!built.is_ok()) {
    std::fprintf(stderr, "cluster build failed: %s\n", built.status().to_string().c_str());
    return 1;
  }
  dfs::Cluster& cluster = *built.value();
  Rng placement_rng = rng.fork("placement");
  if (const Status s = workload::place_static_replicas(cluster, exp::paper_placement_params(),
                                                       placement_rng);
      !s.is_ok()) {
    std::fprintf(stderr, "placement failed: %s\n", s.to_string().c_str());
    return 1;
  }
  cluster.start();

  Rng pattern_rng = rng.fork("pattern");
  const auto pattern =
      workload::generate_pattern(cluster.directory(), exp::paper_pattern_params(users),
                                 pattern_rng);
  workload::RequestScheduler scheduler{cluster, pattern};
  scheduler.schedule(SimTime::seconds(5.0));
  const SimTime end = SimTime::seconds(5.0) + exp::paper_pattern_params(users).duration;
  cluster.gc().start(end);
  cluster.start_resource_refresh(SimTime::seconds(120.0), end);

  // Incident: RM4 goes down for 10 minutes in hour one.
  cluster.simulator().schedule_at(SimTime::minutes(40.0), [&] {
    std::printf(">>> incident: RM4 crashed at t=40min\n\n");
    cluster.fail_rm(3);
  });
  cluster.simulator().schedule_at(SimTime::minutes(50.0), [&] {
    std::printf(">>> incident resolved: RM4 recovered at t=50min\n\n");
    cluster.recover_rm(3);
  });

  // The dashboard poll.
  for (SimTime t = SimTime::seconds(interval_s); t <= end;
       t += SimTime::seconds(interval_s)) {
    cluster.simulator().schedule_at(t, [&cluster, &scheduler] {
      std::printf("=== t = %.0f min | dispatched %llu, completed %llu, failed %llu | "
                  "replication: %llu copies | gc: %llu reclaimed\n",
                  cluster.simulator().now().as_minutes(),
                  static_cast<unsigned long long>(scheduler.dispatched()),
                  static_cast<unsigned long long>(scheduler.completed()),
                  static_cast<unsigned long long>(scheduler.failed()),
                  static_cast<unsigned long long>(
                      cluster.replication().counters().copies_completed),
                  static_cast<unsigned long long>(cluster.gc().counters().deletes_approved));
      std::fputs(stats::render_rm_report(cluster).c_str(), stdout);
      std::printf("\n");
    });
  }

  cluster.simulator().run();
  std::printf("run complete: %llu requests, over-allocate ratio by RM in the last table\n",
              static_cast<unsigned long long>(scheduler.dispatched()));
  return 0;
}
