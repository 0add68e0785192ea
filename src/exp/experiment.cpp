#include "exp/experiment.hpp"

#include <cstdio>
#include <cstdlib>

#include "dfs/cluster.hpp"
#include "exp/parallel_runner.hpp"
#include "obs/queue_probe.hpp"
#include "obs/recorder.hpp"
#include "stats/obs_metrics.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/request_scheduler.hpp"
#include "workload/trace.hpp"

namespace sqos::exp {
namespace {

[[noreturn]] void die(const Status& status, const char* phase) {
  std::fprintf(stderr, "experiment: %s failed: %s\n", phase, status.to_string().c_str());
  std::abort();
}

/// Fan the per-seed runs out over `jobs` workers and return them indexed by
/// seed offset. The position-based merge makes every downstream fold
/// bit-identical to the serial loop it replaced.
std::vector<ExperimentResult> run_seed_grid(const ExperimentParams& params, std::size_t seeds,
                                            std::size_t jobs) {
  ParallelRunner pool{jobs};
  return pool.map<ExperimentResult>(seeds, [&params](std::size_t s) {
    ExperimentParams p = params;
    p.seed = params.seed + s;
    // Only the first seed records a trace: the file stays a pure function of
    // the base seed regardless of the seed count or jobs value, and parallel
    // workers never race on one output path.
    if (s != 0) p.obs_trace_path.reset();
    return run_experiment(p);
  });
}

}  // namespace

ExperimentResult run_experiment(const ExperimentParams& params) {
  Rng root{params.seed};

  // Catalog & cluster.
  Rng catalog_rng = root.fork("catalog");
  dfs::FileDirectory directory = workload::generate_catalog(params.catalog, catalog_rng);

  dfs::ClusterConfig config = params.cluster.value_or(paper_cluster_config());
  config.mode = params.mode;
  config.policy = params.policy;
  config.replication = params.replication;
  config.deletion = params.deletion;
  config.negotiation = params.negotiation;
  config.tenants = params.tenants;
  config.qos_controller = params.qos_controller;
  config.exec_shards = params.shards;
  config.layout = params.layout;
  config.seed = root.fork("cluster").seed();

  auto built = dfs::Cluster::build(std::move(config), std::move(directory));
  if (!built.is_ok()) die(built.status(), "cluster build");
  dfs::Cluster& cluster = *built.value();

  // Static placement, then the §III.B initialization protocol. EC layouts
  // replace whole-file replicas with k+m shards per file (deterministic
  // greedy placement — the placement RNG is still forked so the replication
  // path's stream stays byte-identical whether or not EC code exists).
  Rng placement_rng = root.fork("placement");
  const Status placed =
      params.layout.is_ec()
          ? workload::place_stripes(cluster, params.layout)
          : workload::place_static_replicas(cluster, params.placement, placement_rng);
  if (!placed.is_ok()) die(placed, "static placement");

  // Tracing attaches before start() so the registration protocol is on the
  // trace. The queue-depth probe shares the simulator's single post-event
  // hook; experiments never install the invariant auditor, so it is free.
  std::unique_ptr<obs::Recorder> recorder;
  std::unique_ptr<obs::QueueDepthProbe> probe;
  if (params.obs_trace_path.has_value()) {
    recorder = std::make_unique<obs::Recorder>(cluster.simulator());
    cluster.attach_observability(*recorder);
    probe = std::make_unique<obs::QueueDepthProbe>(cluster.simulator(), recorder->trace,
                                                   recorder->trace.register_track("sim"));
    probe->install();
  }
  cluster.start();

  // Access pattern: generated per seed, or replayed from a saved trace.
  const workload::PatternParams pattern_params =
      params.pattern.value_or(paper_pattern_params(params.users));
  std::vector<workload::AccessEvent> pattern;
  SimTime pattern_duration = pattern_params.duration;
  if (params.trace_path.has_value()) {
    auto loaded = workload::load_trace(*params.trace_path);
    if (!loaded.is_ok()) die(loaded.status(), "trace load");
    pattern = std::move(loaded).take();
    if (!pattern.empty()) pattern_duration = pattern.back().time;
  } else if (params.tenant_pattern.has_value()) {
    if (params.tenant_pattern->mix.size() != params.tenants.size()) {
      die(Status::internal("tenant_pattern has " +
                           std::to_string(params.tenant_pattern->mix.size()) +
                           " mix entries but " + std::to_string(params.tenants.size()) +
                           " tenants are configured"),
          "tenant pattern");
    }
    Rng pattern_rng = root.fork("pattern");
    pattern =
        workload::generate_tenant_pattern(cluster.directory(), *params.tenant_pattern, pattern_rng);
    pattern_duration = params.tenant_pattern->duration;
  } else {
    Rng pattern_rng = root.fork("pattern");
    pattern = workload::generate_pattern(cluster.directory(), pattern_params, pattern_rng);
  }

  workload::RequestScheduler scheduler{cluster, std::move(pattern)};
  if (params.tenant_pattern.has_value() && cluster.qos() != nullptr) {
    // generate_tenant_pattern numbers users contiguously per mix entry; route
    // entry t's users into tenant t's client block so every request carries
    // that tenant's id (DfsClient::Params::tenant was set at build time).
    std::vector<std::uint32_t> user_begin;
    user_begin.reserve(params.tenant_pattern->mix.size() + 1);
    user_begin.push_back(0);
    for (const workload::TenantMixEntry& entry : params.tenant_pattern->mix) {
      user_begin.push_back(user_begin.back() + static_cast<std::uint32_t>(entry.users));
    }
    const qos::QosManager* qos = cluster.qos();
    scheduler.set_user_map([user_begin, qos](std::uint32_t user) {
      const std::size_t tenants = user_begin.size() - 1;
      std::size_t t = 0;
      while (t + 1 < tenants && user >= user_begin[t + 1]) ++t;
      const auto id = static_cast<qos::TenantId>(t);
      const std::size_t begin = qos->client_begin(id);
      const std::size_t width = qos->client_begin(id + 1) - begin;
      return begin + (user - user_begin[t]) % width;
    });
  }
  scheduler.schedule(params.start_offset);

  const SimTime pattern_end = params.start_offset + pattern_duration;
  cluster.gc().start(pattern_end);
  if (cluster.qos() != nullptr) cluster.start_qos_controller(pattern_end);
  std::unique_ptr<stats::RmMonitor> monitor;
  if (params.monitor_interval > SimTime::zero()) {
    monitor = std::make_unique<stats::RmMonitor>(cluster, params.monitor_interval);
    monitor->start(pattern_end);
  }

  // Run through the arrival window, then drain the in-flight transfers and
  // replication rounds so the ledgers integrate complete streams.
  cluster.simulator().run_until(pattern_end);
  cluster.simulator().run();
  if (!scheduler.drained()) {
    die(Status::internal("scheduler not drained after event queue emptied"), "drain");
  }

  // Metric extraction.
  ExperimentResult result;
  const SimTime end = cluster.simulator().now();
  result.simulated_seconds = end.as_seconds();
  result.executed_events = cluster.simulator().executed_events();
  result.per_rm = stats::collect_rm_summaries(cluster, end);
  result.overallocate_ratio = stats::aggregate_overallocate_ratio(result.per_rm);
  result.per_tenant = stats::collect_tenant_summaries(cluster, end);
  result.jain_index = stats::jain_fairness(result.per_tenant);
  result.floor_violation_rate = stats::aggregate_floor_violation_rate(result.per_tenant);

  result.requests = scheduler.dispatched();
  result.completed = scheduler.completed();
  result.failed = scheduler.failed();
  result.fail_rate = scheduler.fail_rate();

  const dfs::ReplicationAgent::Counters& rep = cluster.replication().counters();
  result.replication_rounds = rep.rounds_started;
  result.copies_completed = rep.copies_completed;
  result.destination_rejects = rep.destination_rejects;
  result.self_deletes = rep.self_deletes;
  result.bytes_copied = rep.bytes_copied;
  result.final_total_replicas = cluster.mm().total_replicas();
  result.gc_deletes = cluster.gc().counters().deletes_approved;
  result.gc_bytes_reclaimed = cluster.gc().counters().bytes_reclaimed;

  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    result.ec_reads += cluster.client(c).counters().ec_reads;
    result.ec_degraded_reads += cluster.client(c).counters().ec_degraded_reads;
    result.ec_failed_reads += cluster.client(c).counters().ec_failed_reads;
  }
  for (std::size_t s = 0; s < cluster.mm().shard_count(); ++s) {
    result.stripes_degraded += cluster.mm().shard(s).counters().stripes_degraded;
  }
  for (std::size_t r = 0; r < cluster.rm_count(); ++r) {
    result.storage_bytes_used += static_cast<std::uint64_t>(cluster.rm(r).disk().used().count());
  }

  result.control_messages = cluster.network().stats().total_messages;
  result.control_bytes = cluster.network().stats().total_bytes;
  std::uint64_t negotiation_us = 0;
  std::uint64_t negotiations = 0;
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    negotiation_us += cluster.client(c).counters().negotiation_us_sum;
    negotiations += cluster.client(c).counters().negotiations;
  }
  result.mean_negotiation_ms =
      negotiations == 0 ? 0.0
                        : static_cast<double>(negotiation_us) /
                              static_cast<double>(negotiations) / 1000.0;
  for (std::size_t s = 0; s < cluster.mm().shard_count(); ++s) {
    const std::uint64_t received =
        cluster.network().node_received(cluster.mm().shard(s).node_id()).total_messages;
    result.mm_messages += received;
    result.mm_shard_messages.push_back(received);
  }

  if (monitor != nullptr) {
    result.rm_series.resize(cluster.rm_count());
    for (std::size_t rm = 0; rm < cluster.rm_count(); ++rm) {
      const std::vector<double> series = monitor->series(rm);
      result.rm_series[rm].reserve(series.size());
      for (std::size_t i = 0; i < series.size(); ++i) {
        result.rm_series[rm].push_back(
            TimeSeriesPoint{monitor->samples()[i].time.as_seconds(), series[i]});
      }
    }
  }

  // Observability: the counter snapshot is always collected; the trace file
  // is written only when requested. The registry is rebuilt per run, so the
  // snapshot is a pure function of the run like every other metric.
  obs::MetricsRegistry registry;
  stats::collect_obs_metrics(cluster, registry);
  if (probe != nullptr) {
    probe->uninstall();
    registry.counter("sim.queue_probe_samples").add(probe->stats().samples);
    obs::Gauge& depth = registry.gauge("sim.event_queue_depth");
    depth.observe(static_cast<double>(probe->stats().max_depth));
    depth.observe(static_cast<double>(probe->stats().last_depth));
  }
  result.obs_metrics = registry.snapshot();
  if (recorder != nullptr) {
    const Status written = recorder->trace.write_file(*params.obs_trace_path);
    if (!written.is_ok()) die(written, "trace write");
  }
  return result;
}

ExperimentResult run_averaged(ExperimentParams params, std::size_t seeds) {
  return run_averaged(std::move(params), seeds, 1);
}

ExperimentResult run_averaged(ExperimentParams params, std::size_t seeds, std::size_t jobs) {
  if (seeds == 0) seeds = 1;
  std::vector<ExperimentResult> runs = run_seed_grid(params, seeds, jobs);
  // Fold in seed (submission) order — the arithmetic below is identical to
  // the serial accumulation loop, so the average is bit-exact at any jobs.
  ExperimentResult avg;
  for (std::size_t s = 0; s < seeds; ++s) {
    ExperimentResult r = std::move(runs[s]);
    if (s == 0) {
      avg = std::move(r);
      continue;
    }
    // Seeds must agree on the cluster shape; averaging per-RM metrics across
    // differently-sized clusters would be silent UB, so fail loudly instead.
    if (r.per_rm.size() != avg.per_rm.size()) {
      die(Status::internal("seed " + std::to_string(params.seed + s) + " produced " +
                           std::to_string(r.per_rm.size()) + " per-RM summaries, expected " +
                           std::to_string(avg.per_rm.size())),
          "per-RM averaging");
    }
    if (r.per_tenant.size() != avg.per_tenant.size()) {
      die(Status::internal("seed " + std::to_string(params.seed + s) + " produced " +
                           std::to_string(r.per_tenant.size()) +
                           " per-tenant summaries, expected " +
                           std::to_string(avg.per_tenant.size())),
          "per-tenant averaging");
    }
    if (r.mm_shard_messages.size() != avg.mm_shard_messages.size()) {
      die(Status::internal("seed " + std::to_string(params.seed + s) + " produced " +
                           std::to_string(r.mm_shard_messages.size()) +
                           " MM shard counters, expected " +
                           std::to_string(avg.mm_shard_messages.size())),
          "per-shard averaging");
    }
    avg.fail_rate += r.fail_rate;
    avg.overallocate_ratio += r.overallocate_ratio;
    for (std::size_t i = 0; i < avg.per_rm.size(); ++i) {
      avg.per_rm[i].assigned_bytes += r.per_rm[i].assigned_bytes;
      avg.per_rm[i].overallocated_bytes += r.per_rm[i].overallocated_bytes;
      avg.per_rm[i].overallocate_ratio += r.per_rm[i].overallocate_ratio;
    }
    avg.jain_index += r.jain_index;
    avg.floor_violation_rate += r.floor_violation_rate;
    for (std::size_t i = 0; i < avg.per_tenant.size(); ++i) {
      stats::TenantSummary& a = avg.per_tenant[i];
      const stats::TenantSummary& b = r.per_tenant[i];
      a.achieved_mbps += b.achieved_mbps;
      a.demand_bytes += b.demand_bytes;
      a.delivered_bytes += b.delivered_bytes;
      a.admitted += b.admitted;
      a.throttled += b.throttled;
      a.completed += b.completed;
      a.periods += b.periods;
      a.floor_violations += b.floor_violations;
      a.latency_samples += b.latency_samples;
      a.latency_violations += b.latency_violations;
      a.floor_violation_rate += b.floor_violation_rate;
      a.mean_latency_ms += b.mean_latency_ms;
    }
    avg.requests += r.requests;
    avg.completed += r.completed;
    avg.failed += r.failed;
    avg.replication_rounds += r.replication_rounds;
    avg.copies_completed += r.copies_completed;
    avg.destination_rejects += r.destination_rejects;
    avg.self_deletes += r.self_deletes;
    avg.bytes_copied += r.bytes_copied;
    avg.final_total_replicas += r.final_total_replicas;
    avg.gc_deletes += r.gc_deletes;
    avg.gc_bytes_reclaimed += r.gc_bytes_reclaimed;
    avg.ec_reads += r.ec_reads;
    avg.ec_degraded_reads += r.ec_degraded_reads;
    avg.ec_failed_reads += r.ec_failed_reads;
    avg.stripes_degraded += r.stripes_degraded;
    avg.storage_bytes_used += r.storage_bytes_used;
    avg.control_messages += r.control_messages;
    avg.control_bytes += r.control_bytes;
    avg.mm_messages += r.mm_messages;
    for (std::size_t i = 0; i < avg.mm_shard_messages.size(); ++i) {
      avg.mm_shard_messages[i] += r.mm_shard_messages[i];
    }
    avg.mean_negotiation_ms += r.mean_negotiation_ms;
    avg.simulated_seconds += r.simulated_seconds;
    avg.executed_events += r.executed_events;
  }
  const double n = static_cast<double>(seeds);
  avg.fail_rate /= n;
  avg.overallocate_ratio /= n;
  for (auto& rm : avg.per_rm) {
    rm.assigned_bytes /= n;
    rm.overallocated_bytes /= n;
    rm.overallocate_ratio /= n;
  }
  const auto avg_u64 = [n](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) / n + 0.5);
  };
  avg.jain_index /= n;
  avg.floor_violation_rate /= n;
  for (stats::TenantSummary& t : avg.per_tenant) {
    t.achieved_mbps /= n;
    t.demand_bytes = avg_u64(t.demand_bytes);
    t.delivered_bytes = avg_u64(t.delivered_bytes);
    t.admitted = avg_u64(t.admitted);
    t.throttled = avg_u64(t.throttled);
    t.completed = avg_u64(t.completed);
    t.periods = avg_u64(t.periods);
    t.floor_violations = avg_u64(t.floor_violations);
    t.latency_samples = avg_u64(t.latency_samples);
    t.latency_violations = avg_u64(t.latency_violations);
    t.floor_violation_rate /= n;
    t.mean_latency_ms /= n;
  }
  avg.requests = avg_u64(avg.requests);
  avg.completed = avg_u64(avg.completed);
  avg.failed = avg_u64(avg.failed);
  avg.replication_rounds = avg_u64(avg.replication_rounds);
  avg.copies_completed = avg_u64(avg.copies_completed);
  avg.destination_rejects = avg_u64(avg.destination_rejects);
  avg.self_deletes = avg_u64(avg.self_deletes);
  avg.bytes_copied = avg_u64(avg.bytes_copied);
  avg.gc_deletes = avg_u64(avg.gc_deletes);
  avg.gc_bytes_reclaimed = avg_u64(avg.gc_bytes_reclaimed);
  avg.ec_reads = avg_u64(avg.ec_reads);
  avg.ec_degraded_reads = avg_u64(avg.ec_degraded_reads);
  avg.ec_failed_reads = avg_u64(avg.ec_failed_reads);
  avg.stripes_degraded = avg_u64(avg.stripes_degraded);
  avg.storage_bytes_used = avg_u64(avg.storage_bytes_used);
  avg.final_total_replicas = static_cast<std::size_t>(
      static_cast<double>(avg.final_total_replicas) / n + 0.5);
  avg.control_messages = avg_u64(avg.control_messages);
  avg.control_bytes = avg_u64(avg.control_bytes);
  avg.mm_messages = avg_u64(avg.mm_messages);
  for (std::uint64_t& shard : avg.mm_shard_messages) shard = avg_u64(shard);
  avg.executed_events = avg_u64(avg.executed_events);
  avg.mean_negotiation_ms /= n;
  avg.simulated_seconds /= n;
  return avg;
}

std::string summarize(const ExperimentResult& r) {
  std::string out;
  char buf[256];
  const auto line = [&](const char* fmt, auto... args) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-security"
    std::snprintf(buf, sizeof buf, fmt, args...);
#pragma GCC diagnostic pop
    out += buf;
    out += '\n';
  };
  line("simulated time        : %.0f s", r.simulated_seconds);
  line("requests              : %llu (%llu completed, %llu failed)",
       static_cast<unsigned long long>(r.requests), static_cast<unsigned long long>(r.completed),
       static_cast<unsigned long long>(r.failed));
  line("fail rate             : %s", format_percent(r.fail_rate).c_str());
  line("over-allocate ratio   : %s", format_percent(r.overallocate_ratio).c_str());
  line("mean negotiation time : %.3f ms", r.mean_negotiation_ms);
  line("control messages      : %llu (%llu at the matchmaker)",
       static_cast<unsigned long long>(r.control_messages),
       static_cast<unsigned long long>(r.mm_messages));
  if (r.replication_rounds > 0) {
    line("replication           : %llu rounds, %llu copies, %llu migrations, %llu rejects",
         static_cast<unsigned long long>(r.replication_rounds),
         static_cast<unsigned long long>(r.copies_completed),
         static_cast<unsigned long long>(r.self_deletes),
         static_cast<unsigned long long>(r.destination_rejects));
    line("data moved            : %.1f MiB, final replica count %zu",
         static_cast<double>(r.bytes_copied) / (1024.0 * 1024.0), r.final_total_replicas);
  }
  if (r.ec_reads > 0 || r.ec_failed_reads > 0) {
    line("ec reads              : %llu (%llu degraded, %llu failed), %llu stripes degraded",
         static_cast<unsigned long long>(r.ec_reads),
         static_cast<unsigned long long>(r.ec_degraded_reads),
         static_cast<unsigned long long>(r.ec_failed_reads),
         static_cast<unsigned long long>(r.stripes_degraded));
  }
  if (r.gc_deletes > 0) {
    line("gc                    : %llu replicas reclaimed (%.1f MiB)",
         static_cast<unsigned long long>(r.gc_deletes),
         static_cast<double>(r.gc_bytes_reclaimed) / (1024.0 * 1024.0));
  }
  return out;
}

}  // namespace sqos::exp
