// sqos_run — run one storage-QoS experiment from the command line.
//
// The Swiss-army knife for exploring configurations beyond the canned
// reproduction benches: every experiment knob is exposed as key=value.
//
//   sqos_run users=256 mode=soft alpha=1 beta=0 gamma=1 nrep=1 nmaxr=3
//   sqos_run dest=weighted gc=1 shards=4 seeds=3 csv=/tmp/rm.csv
//
// Keys (defaults in brackets):
//   users=N         [256]     concurrent users
//   mode=firm|soft  [firm]    allocation scenario
//   alpha,beta,gamma=X [1,0,0] selection-policy weights
//   replication=0|1 [0]       enable dynamic replication
//   nrep,nmaxr=N    [1,3]     Rep(N_REP, N_MAXR)
//   dest=random|lbf|weighted [random]
//   bth=F           [0.2]     replication trigger threshold
//   gc=0|1          [0]       replica garbage collection
//   gc_idle=S       [600]     GC idle threshold, seconds
//   shards=N        [1]       MM shards on the DHT ring
//   cache_ttl=S     [0]       client holder-cache TTL, seconds (0 = off)
//   layout=replication|ec:k,m [replication]  storage layout; ec stripes every
//                             file as k data + m parity shards and reads
//                             degrade through parity under RM failures
//   cnp=0|1         [0]       plain-CNP broadcast instead of ECNP
//   files=N         [1000]    catalog size
//   zipf=F, bitrate_median=F, bitrate_max=F, dur_min=F, dur_max=F
//   seeds=N         [1]       seeds to average
//   seed=N          [1]       base seed
//   jobs=N          [1]       worker threads for the seed fan-out (0 = all
//                             cores; results merge in seed order, so the
//                             output is identical at every jobs value)
//   monitor=S       [0]       bandwidth-sampling interval (0 = off)
//   csv=path        []        per-RM summary CSV
//   trace=path      []        Chrome trace-event JSON of the first seed's
//                             run (load in chrome://tracing or Perfetto;
//                             byte-identical across repeats and jobs=)
//   metrics=0|1     [0]       print the observability-counter table
//
// Any other key, or a mode or dest outside its list, is an error (exit 1), and
// a negative count aborts naming its key: a mistyped key or value never runs
// a default.
#include <cstdio>

#include "exp/experiment.hpp"
#include "stats/report.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sqos;

  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\nusage: sqos_run key=value ... (see header comment)\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  const Config cfg = std::move(parsed).take();
  if (const Status known = cfg.require_known(
          {"users", "mode", "alpha", "beta", "gamma", "replication", "nrep", "nmaxr", "dest",
           "bth", "gc", "gc_idle", "shards", "cache_ttl", "layout", "cnp", "files", "zipf",
           "bitrate_median", "bitrate_max", "dur_min", "dur_max", "seeds", "seed", "jobs",
           "monitor", "csv", "trace", "metrics"});
      !known.is_ok()) {
    std::fprintf(stderr, "%s\nusage: sqos_run key=value ... (see header comment)\n",
                 known.to_string().c_str());
    return 1;
  }

  exp::ExperimentParams params;
  params.users = cfg.get_count("users", 256);
  const std::string mode = cfg.get_string("mode", "firm");
  if (mode != "firm" && mode != "soft") {
    std::fprintf(stderr, "unknown mode '%s' (firm|soft)\n", mode.c_str());
    return 1;
  }
  params.mode = mode == "soft" ? core::AllocationMode::kSoft : core::AllocationMode::kFirm;
  params.policy = core::PolicyWeights{cfg.get_double("alpha", 1.0), cfg.get_double("beta", 0.0),
                                      cfg.get_double("gamma", 0.0)};
  if (cfg.get_bool("replication", false)) {
    params.replication = core::ReplicationConfig::rep(
        static_cast<std::uint32_t>(cfg.get_count("nrep", 1)),
        static_cast<std::uint32_t>(cfg.get_count("nmaxr", 3)));
    params.replication.trigger_threshold = cfg.get_double("bth", 0.2);
    const std::string dest = cfg.get_string("dest", "random");
    if (dest == "lbf") {
      params.replication.destination = core::DestinationStrategy::kLargestBandwidthFirst;
    } else if (dest == "weighted") {
      params.replication.destination = core::DestinationStrategy::kWeighted;
    } else if (dest != "random") {
      std::fprintf(stderr, "unknown dest '%s' (random|lbf|weighted)\n", dest.c_str());
      return 1;
    }
  }
  if (cfg.get_bool("gc", false)) {
    params.deletion.enabled = true;
    params.deletion.idle_threshold = SimTime::seconds(cfg.get_double("gc_idle", 600.0));
  }
  params.negotiation =
      cfg.get_bool("cnp", false) ? dfs::NegotiationModel::kCnp : dfs::NegotiationModel::kEcnp;
  params.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  if (const std::string layout = cfg.get_string("layout", ""); !layout.empty()) {
    auto policy = storage::LayoutPolicy::parse(layout);
    if (!policy.is_ok()) {
      std::fprintf(stderr, "%s\n", policy.status().to_string().c_str());
      return 1;
    }
    params.layout = policy.value();
  }
  params.catalog.file_count = cfg.get_count("files", 1000);
  params.catalog.zipf_exponent = cfg.get_double("zipf", params.catalog.zipf_exponent);
  params.catalog.bitrate_median_mbps =
      cfg.get_double("bitrate_median", params.catalog.bitrate_median_mbps);
  params.catalog.bitrate_max_mbps =
      cfg.get_double("bitrate_max", params.catalog.bitrate_max_mbps);
  params.catalog.duration_min_s = cfg.get_double("dur_min", params.catalog.duration_min_s);
  params.catalog.duration_max_s = cfg.get_double("dur_max", params.catalog.duration_max_s);
  params.monitor_interval = SimTime::seconds(cfg.get_double("monitor", 0.0));
  if (const std::string trace = cfg.get_string("trace", ""); !trace.empty()) {
    params.obs_trace_path = trace;
  }

  const auto shards = cfg.get_count("shards", 1);
  const double cache_ttl = cfg.get_double("cache_ttl", 0.0);
  if (shards != 1 || cache_ttl > 0.0) {
    dfs::ClusterConfig cluster = exp::paper_cluster_config();
    cluster.mm_shards = shards;
    cluster.holder_cache_ttl = SimTime::seconds(cache_ttl);
    params.cluster = cluster;
  }

  const auto seeds = cfg.get_count("seeds", 1);
  const auto jobs = cfg.get_count("jobs", 1);
  std::printf("sqos_run: %zu users, %s, policy %s, %s%s, layout %s, %zu MM shard(s), %zu seed(s)\n\n",
              params.users, to_string(params.mode).data(), params.policy.to_string().c_str(),
              params.replication.strategy_name().c_str(),
              params.deletion.enabled ? " + GC" : "", params.layout.token().c_str(), shards,
              seeds);

  const exp::ExperimentResult r = exp::run_averaged(params, seeds, jobs);
  std::fputs(exp::summarize(r).c_str(), stdout);
  if (cfg.get_bool("metrics", false)) {
    std::fputs(stats::render_obs_metrics(r.obs_metrics).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  if (params.obs_trace_path.has_value()) {
    std::printf("trace: wrote %s\n", params.obs_trace_path->c_str());
  }

  AsciiTable table{"\nPer-RM summary"};
  table.set_header({"RM", "cap", "assigned MiB", "over-alloc MiB", "R_OA"});
  auto csv = CsvWriter::open(cfg.get_string("csv", ""),
                             {"rm", "cap_mbps", "assigned_bytes", "overallocated_bytes",
                              "overallocate_ratio"});
  if (!csv.is_ok()) {
    std::fprintf(stderr, "%s\n", csv.status().to_string().c_str());
    return 1;
  }
  for (const auto& rm : r.per_rm) {
    table.add_row({rm.name, Bandwidth::bytes_per_sec(rm.cap_bps).to_string(),
                   format_double(rm.assigned_bytes / (1024.0 * 1024.0), 1),
                   format_double(rm.overallocated_bytes / (1024.0 * 1024.0), 1),
                   format_percent(rm.overallocate_ratio, 2)});
    csv.value().row({rm.name, format_double(rm.cap_bps * 8.0 / 1e6, 2),
                     format_double(rm.assigned_bytes, 0),
                     format_double(rm.overallocated_bytes, 0),
                     format_double(rm.overallocate_ratio, 6)});
  }
  table.print();
  return 0;
}
