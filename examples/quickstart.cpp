// Quickstart: build the paper's 16-RM cluster, replay a 64-user workload in
// firm real-time mode with selection policy (1,0,0), and print the QoS
// metrics. This is the smallest end-to-end use of the public API.
//
// Usage: quickstart [users=64] [mode=firm|soft] [seed=1] [replication=0|1]
#include <cstdio>

#include "exp/experiment.hpp"
#include "util/config.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sqos;

  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    return 1;
  }
  const Config cfg = std::move(parsed).take();
  if (const Status known = cfg.require_known({"users", "mode", "seed", "replication", "nrep",
                                              "nmaxr", "random_policy", "bitrate_median",
                                              "bitrate_max", "dur_min", "dur_max", "zipf"});
      !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    return 1;
  }

  exp::ExperimentParams params;
  params.users = cfg.get_count("users", 64);
  const std::string mode = cfg.get_string("mode", "firm");
  if (mode != "firm" && mode != "soft") {
    std::fprintf(stderr, "unknown mode '%s' (firm|soft)\n", mode.c_str());
    return 1;
  }
  params.mode = mode == "soft" ? core::AllocationMode::kSoft : core::AllocationMode::kFirm;
  params.policy = core::PolicyWeights::p100();
  params.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  if (cfg.get_bool("replication", false)) {
    params.replication = core::ReplicationConfig::rep(
        static_cast<std::uint32_t>(cfg.get_count("nrep", 1)),
        static_cast<std::uint32_t>(cfg.get_count("nmaxr", 3)));
  }
  if (cfg.get_bool("random_policy", false)) params.policy = core::PolicyWeights::random();
  params.catalog.bitrate_median_mbps =
      cfg.get_double("bitrate_median", params.catalog.bitrate_median_mbps);
  params.catalog.bitrate_max_mbps =
      cfg.get_double("bitrate_max", params.catalog.bitrate_max_mbps);
  params.catalog.duration_min_s = cfg.get_double("dur_min", params.catalog.duration_min_s);
  params.catalog.duration_max_s = cfg.get_double("dur_max", params.catalog.duration_max_s);
  params.catalog.zipf_exponent = cfg.get_double("zipf", params.catalog.zipf_exponent);

  std::printf("storageqos quickstart: %zu users, %s real-time, policy %s, %s\n",
              params.users, to_string(params.mode).data(),
              params.policy.to_string().c_str(), params.replication.strategy_name().c_str());

  const exp::ExperimentResult r = exp::run_experiment(params);
  std::printf("\n%s", exp::summarize(r).c_str());

  AsciiTable table{"\nPer-RM summary"};
  table.set_header({"RM", "cap", "assigned MiB", "over-alloc MiB", "R_OA"});
  for (const auto& rm : r.per_rm) {
    table.add_row({rm.name, Bandwidth::bytes_per_sec(rm.cap_bps).to_string(),
                   format_double(rm.assigned_bytes / (1024.0 * 1024.0), 1),
                   format_double(rm.overallocated_bytes / (1024.0 * 1024.0), 1),
                   format_percent(rm.overallocate_ratio)});
  }
  table.print();
  return 0;
}
