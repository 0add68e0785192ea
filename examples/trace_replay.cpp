// Trace replay: generate a multi-user access pattern once, persist it, and
// replay the identical workload under two selection policies — the paper's
// methodology for comparing configurations "using the access pattern of 256
// users" fairly.
//
// Usage: trace_replay [users=128] [trace=/tmp/sqos_demo.trace] [seed=1]
#include <cstdio>

#include "exp/paper_setup.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workload/placement.hpp"
#include "workload/request_scheduler.hpp"
#include "workload/trace.hpp"
#include "workload/video_catalog.hpp"

namespace {

using namespace sqos;

struct ReplayOutcome {
  double fail_rate = 0.0;
  std::uint64_t requests = 0;
};

ReplayOutcome replay(const std::vector<workload::AccessEvent>& events,
                     core::PolicyWeights policy, std::uint64_t seed) {
  Rng rng{seed};
  Rng catalog_rng = rng.fork("catalog");
  dfs::FileDirectory directory =
      workload::generate_catalog(exp::paper_catalog_params(), catalog_rng);

  dfs::ClusterConfig cfg = exp::paper_cluster_config();
  cfg.mode = core::AllocationMode::kFirm;
  cfg.policy = policy;
  cfg.seed = seed;
  auto built = dfs::Cluster::build(std::move(cfg), std::move(directory));
  if (!built.is_ok()) {
    std::fprintf(stderr, "cluster build failed: %s\n", built.status().to_string().c_str());
    std::exit(1);
  }
  dfs::Cluster& cluster = *built.value();
  Rng placement_rng = rng.fork("placement");
  if (const Status s = workload::place_static_replicas(cluster, exp::paper_placement_params(),
                                                       placement_rng);
      !s.is_ok()) {
    std::fprintf(stderr, "placement failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }
  cluster.start();

  workload::RequestScheduler scheduler{cluster, events};
  scheduler.schedule(SimTime::seconds(5.0));
  cluster.simulator().run();

  return ReplayOutcome{scheduler.fail_rate(), scheduler.dispatched()};
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const Config cfg = std::move(parsed).take();
  if (const Status known = cfg.require_known({"users", "trace", "seed"}); !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }
  const auto users = cfg.get_count("users", 192);
  const std::string path = cfg.get_string("trace", "/tmp/sqos_demo.trace");
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));

  // 1. Generate the pattern against the same catalog both replays will use.
  Rng rng{seed};
  Rng catalog_rng = rng.fork("catalog");
  const dfs::FileDirectory directory =
      workload::generate_catalog(exp::paper_catalog_params(), catalog_rng);
  Rng pattern_rng = rng.fork("pattern");
  const auto events =
      workload::generate_pattern(directory, exp::paper_pattern_params(users), pattern_rng);
  std::printf("generated %zu requests from %zu users over 2 h\n", events.size(), users);

  // 2. Persist and reload — the on-disk trace is the exchange format.
  if (const Status s = workload::save_trace(path, events); !s.is_ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.to_string().c_str());
    return 1;
  }
  auto loaded = workload::load_trace(path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  std::printf("trace written to %s and reloaded (%zu events)\n\n", path.c_str(),
              loaded.value().size());

  // 3. Replay the identical workload under both policies.
  AsciiTable table{"Identical-workload comparison (firm real-time)"};
  table.set_header({"policy", "requests", "fail rate"});
  for (const auto& policy : {core::PolicyWeights::random(), core::PolicyWeights::p100()}) {
    const ReplayOutcome out = replay(loaded.value(), policy, seed);
    table.add_row({policy.to_string(), std::to_string(out.requests),
                   format_percent(out.fail_rate, 2)});
  }
  table.print();
  std::printf("\nBoth rows saw byte-identical request sequences; only the resource\n"
              "selection policy differs.\n");
  return 0;
}
