// bench_e2e — phase-timed end-to-end benchmark of one storage-QoS scenario.
//
// One named workload per process, single-threaded. The benchmark calls the
// layers' public functions itself, in exp::run_experiment's order, and times
// each call from outside with steady_clock:
//   catalog    workload::generate_catalog
//   build      dfs::Cluster::build
//   placement  workload::place_static_replicas / place_stripes, Cluster::start
//   pattern    workload::generate_pattern / generate_tenant_pattern
//   schedule   RequestScheduler::schedule (+ the workload's writes and crashes)
//   loop       Simulator::run_until + run
//   report     stats::collect_*
//   teardown   the cluster destructor
// One untimed warm-up scenario runs first. Timed repetitions follow, each on a
// fresh cluster, until --seconds of them have run (at least three); timings
// are their medians. --trace 1 adds one repetition whose post-event hook
// charges host time to the layer that sent the event's first message
// (README.md has the map). Every scenario must produce the same simulated
// outputs, and for paper-day and scale-2048 they must equal what
// exp::run_experiment reports on the same parameters.
//
// Usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
// Prints every metric with its unit, writes DIR/NAME.json (sqos-bench-v1) and,
// with --trace 1, DIR/NAME.trace.json (Chrome trace of the phase spans). The
// last stdout line is {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit 0 when every output check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dfs/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/paper_setup.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "stats/obs_metrics.hpp"
#include "stats/qos_metrics.hpp"
#include "stats/tenant_metrics.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"
#include "workload/access_pattern.hpp"
#include "workload/placement.hpp"
#include "workload/request_scheduler.hpp"
#include "workload/video_catalog.hpp"

namespace {

using namespace sqos;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 3;
constexpr dfs::FileId kFirstIngestId = 1'000'000;
constexpr std::size_t kIngestReplicas = 3;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- workloads --

struct Workload {
  std::string name;
  exp::ExperimentParams params;
  /// One new file written per simulated second of the arrival window.
  bool ingest = false;
  /// Cluster::fail_rm(rm) at these offsets after the arrival window opens.
  std::vector<std::pair<SimTime, std::size_t>> crashes;
  /// Outputs must equal exp::run_experiment on the same params.
  bool reference = false;
};

constexpr std::array<std::string_view, 4> kWorkloads = {"paper-day", "scale-2048", "ingest-mix",
                                                         "ec-tenants"};

std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string{name};
  exp::ExperimentParams& p = w.params;
  p.seed = seed;
  if (name == "paper-day") {
    // The paper's imbalanced 16-RM cluster with the full bid formula,
    // replication planning and GC.
    p.mode = core::AllocationMode::kFirm;
    p.policy = core::PolicyWeights::p111();
    p.replication = core::ReplicationConfig::rep(1, 3);
    p.deletion.enabled = true;
    p.deletion.idle_threshold = SimTime::seconds(600.0);
    p.users = 512;
    workload::PatternParams pattern = exp::paper_pattern_params(p.users);
    pattern.duration = SimTime::hours(48.0);
    p.pattern = pattern;
    w.reference = true;
  } else if (name == "scale-2048") {
    // The scale ablation's headline cell: event queue, per-client state and
    // the selection tree at 2048 RMs and 10^5 users.
    p.mode = core::AllocationMode::kSoft;
    p.policy = core::PolicyWeights::p100();
    p.replication = core::ReplicationConfig::rep(1, 3);
    p.cluster = exp::scaled_cluster_config(2048);
    p.users = 100'000;
    workload::PatternParams pattern = exp::paper_pattern_params(p.users);
    pattern.duration = SimTime::seconds(600.0);
    p.pattern = pattern;
    w.reference = true;
  } else if (name == "ingest-mix") {
    // Reads beside one write per simulated second: writes bid on every
    // candidate RM and mutate the MM and the disk stores.
    p.mode = core::AllocationMode::kSoft;
    p.policy = core::PolicyWeights::p100();
    p.replication = core::ReplicationConfig::rep(1, 3);
    p.cluster = exp::scaled_cluster_config(64);
    p.users = 2048;
    workload::PatternParams pattern = exp::paper_pattern_params(p.users);
    pattern.duration = SimTime::hours(4.0);
    p.pattern = pattern;
    w.ingest = true;
  } else if (name == "ec-tenants") {
    // The qos, striped-read and crash/timeout paths: EC(4,2) under two
    // tenants with the AIMD controller on, and two RM crashes (<= m).
    p.mode = core::AllocationMode::kFirm;
    p.cluster = exp::scaled_cluster_config(64);
    p.layout = storage::LayoutPolicy::erasure(4, 2);
    qos::TenantSlo victim;
    victim.name = "victim";
    victim.clients = 16;
    victim.floor = Bandwidth::mbps(40.0);
    victim.ceiling = Bandwidth::mbps(1600.0);
    qos::TenantSlo hog;
    hog.name = "hog";
    hog.clients = 16;
    hog.floor = Bandwidth::zero();
    hog.ceiling = Bandwidth::mbps(1600.0);
    p.tenants = {victim, hog};
    p.qos_controller.enabled = true;
    p.qos_controller.period = SimTime::seconds(10.0);
    workload::TenantPatternParams pattern;
    pattern.duration = SimTime::hours(8.0);
    workload::TenantMixEntry victims;
    victims.users = 32;
    victims.mean_interarrival = SimTime::seconds(120.0);
    workload::TenantMixEntry hogs;
    hogs.users = 128;
    hogs.mean_interarrival = SimTime::seconds(30.0);
    pattern.mix = {victims, hogs};
    p.tenant_pattern = pattern;
    w.crashes = {{SimTime::hours(1.0), 3}, {SimTime::hours(2.0), 17}};
  } else {
    return std::nullopt;
  }
  return w;
}

/// The user -> client routing exp::run_experiment installs for tenant
/// patterns: mix entry t's users land in tenant t's client block.
std::function<std::size_t(std::uint32_t)> tenant_user_map(
    const workload::TenantPatternParams& pattern, const qos::QosManager& qos) {
  std::vector<std::uint32_t> user_begin{0};
  for (const workload::TenantMixEntry& entry : pattern.mix) {
    user_begin.push_back(user_begin.back() + static_cast<std::uint32_t>(entry.users));
  }
  return [user_begin, &qos](std::uint32_t user) {
    const std::size_t tenants = user_begin.size() - 1;
    std::size_t t = 0;
    while (t + 1 < tenants && user >= user_begin[t + 1]) ++t;
    const auto id = static_cast<qos::TenantId>(t);
    const std::size_t begin = qos.client_begin(id);
    const std::size_t width = qos.client_begin(id + 1) - begin;
    return begin + (user - user_begin[t]) % width;
  };
}

/// ingest-mix's write stream: files drawn at schedule time, written when due.
struct Ingest {
  std::vector<dfs::FileMeta> files;
  std::vector<dfs::FileId> acknowledged;
  std::uint64_t failed = 0;
};

void schedule_writes(dfs::Cluster& cluster, const Rng& root, SimTime start, SimTime window,
                     Ingest& ingest) {
  Rng rng = root.fork("bench-writes");
  const auto count = static_cast<std::size_t>(window.as_seconds());
  ingest.files.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    dfs::FileMeta meta;
    meta.id = kFirstIngestId + i;
    meta.name = "ingest-" + std::to_string(i);
    meta.bitrate = Bandwidth::mbps(rng.uniform(0.5, 3.0));
    const double length_s = rng.uniform(60.0, 300.0);
    meta.size = Bytes::of(static_cast<std::int64_t>(meta.bitrate.bps() * length_s));
    ingest.files.push_back(std::move(meta));
  }
  for (std::size_t i = 0; i < count; ++i) {
    cluster.simulator().schedule_at(
        start + SimTime::seconds(static_cast<double>(i)), [&cluster, &ingest, i] {
          const dfs::FileMeta& meta = ingest.files[i];
          if (!cluster.add_file(meta).is_ok()) {
            ++ingest.failed;
            return;
          }
          cluster.client(i % cluster.client_count())
              .write_file(meta.id, kIngestReplicas, [&ingest, id = meta.id](const Status& s) {
                if (s.is_ok()) {
                  ingest.acknowledged.push_back(id);
                } else {
                  ++ingest.failed;
                }
              });
        });
  }
}

// ------------------------------------------------------------ traced loop --

/// Layers the traced run charges host time to: an event belongs to the layer
/// of the first message kind (enum order) it sent, or to kSilent.
enum Layer : std::size_t {
  kSilent,
  kClientOpen,
  kClientCfp,
  kMm,
  kBid,
  kSelect,
  kStreamEnd,
  kReplicationPlan,
  kReplicationCopy,
  kClientRelease,
  kGc,
  kLayerCount
};

constexpr std::array<std::string_view, kLayerCount> kLayerNames = {
    "sim.silent",           "dfs.client.open",      "dfs.client.cfp",     "dfs.mm",
    "core.bid",             "core.select",          "storage.stream_end", "dfs.replication.plan",
    "dfs.replication.copy", "dfs.client.release",   "dfs.gc"};

/// Which layer metrics the --trace 1 result line carries: busy time only for
/// layers every workload exercises (a bypassed layer reads 0 s on every run),
/// event counts for layers some workload exercises. Explicit sessions
/// (release) and GC deletions never occur in these workloads.
constexpr std::array<bool, kLayerCount> kBusyReported = {
    true, true, true, true, true, true, true, false, false, false, false};
constexpr std::array<bool, kLayerCount> kEventsReported = {
    true, true, true, true, true, true, true, true, true, false, false};

constexpr Layer layer_of(net::MessageKind kind) {
  using K = net::MessageKind;
  switch (kind) {
    case K::kResourceQuery:
    case K::kStripeQuery:
      return kClientOpen;
    case K::kCfp:
      return kClientCfp;
    case K::kRegister:
    case K::kRegisterAck:
    case K::kResourceUpdate:
    case K::kResourceReply:
    case K::kReplicaListReply:
    case K::kDeleteReply:
    case K::kLayoutReply:
      return kMm;
    case K::kBid:
      return kBid;
    case K::kDataRequest:
      return kSelect;
    case K::kDataComplete:
      return kStreamEnd;
    case K::kReplicaListQuery:
      return kReplicationPlan;
    case K::kReplicationRequest:
    case K::kReplicationAccept:
    case K::kReplicationReject:
    case K::kReplicationDone:
    case K::kReplicaDelete:
      return kReplicationCopy;
    case K::kRelease:
    case K::kReleaseAck:
      return kClientRelease;
    case K::kDeleteRequest:
      return kGc;
    case K::kCount:
      break;
  }
  return kSilent;
}

class LoopTracer {
 public:
  void begin(dfs::Cluster& cluster, Clock::time_point loop_start) {
    sim_ = &cluster.simulator();
    net_ = &cluster.network();
    seen_ = net_->stats().count_by_kind;
    seen_total_ = net_->stats().total_messages;
    last_ = loop_start;
    sim_->set_post_event_hook([this] { on_event(); });
  }

  void end() { sim_->set_post_event_hook({}); }

  [[nodiscard]] double busy_s(std::size_t layer) const {
    return std::chrono::duration<double>(busy_[layer]).count();
  }
  [[nodiscard]] std::uint64_t events(std::size_t layer) const { return events_[layer]; }
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

 private:
  void on_event() {
    const Clock::time_point now = Clock::now();
    const net::TrafficStats& stats = net_->stats();
    Layer layer = kSilent;
    if (stats.total_messages != seen_total_) {
      for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
        if (stats.count_by_kind[k] != seen_[k]) {
          layer = layer_of(static_cast<net::MessageKind>(k));
          break;
        }
      }
      seen_ = stats.count_by_kind;
      seen_total_ = stats.total_messages;
    }
    busy_[layer] += now - last_;
    ++events_[layer];
    last_ = now;
    peak_pending_ = std::max(peak_pending_, sim_->pending_events());
  }

  sim::Simulator* sim_ = nullptr;
  const net::Network* net_ = nullptr;
  std::array<std::uint64_t, net::kMessageKindCount> seen_{};
  std::uint64_t seen_total_ = 0;
  Clock::time_point last_;
  std::array<Clock::duration, kLayerCount> busy_{};
  std::array<std::uint64_t, kLayerCount> events_{};
  std::size_t peak_pending_ = 0;
};

// --------------------------------------------------------------- scenario --

enum Phase : std::size_t {
  kCatalog,
  kBuild,
  kPlacement,
  kPattern,
  kSchedule,
  kLoop,
  kReport,
  kTeardown,
  kPhaseCount
};

constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "catalog", "build", "placement", "pattern", "schedule", "loop", "report", "teardown"};

/// Per-layer metric name of each phase span (loop is the end-to-end loop_s).
constexpr std::array<std::string_view, kPhaseCount> kPhaseMetrics = {
    "workload.catalog_s", "dfs.build_s", "workload.placement_s", "workload.pattern_s",
    "workload.schedule_s", "",           "stats.report_s",       "dfs.teardown_s"};

/// Simulated outputs of one scenario; every repetition must produce the same.
struct Outputs {
  std::uint64_t events = 0;
  std::uint64_t reads = 0;  // opens dispatched
  std::uint64_t reads_completed = 0;
  std::uint64_t reads_failed = 0;
  std::uint64_t writes = 0;  // writes issued
  std::uint64_t writes_failed = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, net::kMessageKindCount> messages_by_kind{};
  double overalloc_ratio = 0.0;
  double floor_violation_rate = 0.0;
  std::uint64_t negotiation_us = 0;
  std::uint64_t negotiations = 0;
  std::uint64_t bid_timeouts = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t mm_queries = 0;
  std::uint64_t replication_rounds = 0;
  std::uint64_t copies = 0;
  std::uint64_t destination_rejects = 0;
  std::uint64_t gc_scans = 0;
  std::uint64_t gc_deletes = 0;
  std::uint64_t ec_reads = 0;
  std::uint64_t ec_degraded_reads = 0;
  std::uint64_t ec_failed_reads = 0;
  std::uint64_t replicas_written = 0;
  std::uint64_t client_writes_failed = 0;
  std::uint64_t qos_throttled = 0;
  std::uint64_t rate_decreases = 0;
  std::uint64_t rate_increases = 0;

  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }
  [[nodiscard]] std::uint64_t failed_ops() const { return reads_failed + writes_failed; }
  [[nodiscard]] double negotiation_ms() const {
    return negotiations == 0 ? 0.0
                             : static_cast<double>(negotiation_us) /
                                   static_cast<double>(negotiations) / 1000.0;
  }
  friend bool operator==(const Outputs&, const Outputs&) = default;
};

struct Scenario {
  std::array<double, kPhaseCount> seconds{};
  Outputs out;
  std::vector<std::string> problems;  // failed per-scenario checks

  [[nodiscard]] double setup_s() const {
    return seconds[kCatalog] + seconds[kBuild] + seconds[kPlacement] + seconds[kPattern] +
           seconds[kSchedule];
  }
  [[nodiscard]] double wall_s() const {
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum;
  }
};

Outputs collect_outputs(const dfs::Cluster& cluster, const workload::RequestScheduler& scheduler,
                        const Ingest& ingest, const std::vector<stats::RmQosSummary>& per_rm,
                        const std::vector<stats::TenantSummary>& per_tenant) {
  Outputs o;
  o.events = cluster.simulator().executed_events();
  o.reads = scheduler.dispatched();
  o.reads_completed = scheduler.completed();
  o.reads_failed = scheduler.failed();
  o.writes = ingest.files.size();
  o.writes_failed = ingest.failed;
  const net::TrafficStats& traffic = cluster.network().stats();
  o.messages = traffic.total_messages;
  o.bytes = traffic.total_bytes;
  o.messages_by_kind = traffic.count_by_kind;
  o.overalloc_ratio = stats::aggregate_overallocate_ratio(per_rm);
  o.floor_violation_rate = stats::aggregate_floor_violation_rate(per_tenant);
  for (std::size_t c = 0; c < cluster.client_count(); ++c) {
    const dfs::DfsClient::Counters& cc = cluster.client(c).counters();
    o.negotiation_us += cc.negotiation_us_sum;
    o.negotiations += cc.negotiations;
    o.bid_timeouts += cc.bid_timeouts;
    o.ec_reads += cc.ec_reads;
    o.ec_degraded_reads += cc.ec_degraded_reads;
    o.ec_failed_reads += cc.ec_failed_reads;
    o.replicas_written += cc.replicas_written;
    o.client_writes_failed += cc.writes_failed;
  }
  for (std::size_t r = 0; r < cluster.rm_count(); ++r) {
    o.stored_bytes += static_cast<std::uint64_t>(cluster.rm(r).disk().used().count());
    o.qos_throttled += cluster.rm(r).counters().qos_throttled;
  }
  for (const dfs::FileMeta& f : cluster.directory().files()) {
    o.user_bytes += static_cast<std::uint64_t>(f.size.count());
  }
  for (std::size_t s = 0; s < cluster.mm().shard_count(); ++s) {
    const dfs::MetadataManager::Counters& mc = cluster.mm().shard(s).counters();
    o.mm_queries += mc.resource_queries + mc.replica_list_queries + mc.stripe_queries;
  }
  const dfs::ReplicationAgent::Counters& rep = cluster.replication().counters();
  o.replication_rounds = rep.rounds_started;
  o.copies = rep.copies_completed;
  o.destination_rejects = rep.destination_rejects;
  o.gc_scans = cluster.gc().counters().scans;
  o.gc_deletes = cluster.gc().counters().deletes_approved;
  if (const qos::QosManager* qos = cluster.qos(); qos != nullptr) {
    for (qos::TenantId t = 0; t < qos->tenant_count(); ++t) {
      o.rate_decreases += qos->stats(t).rate_decreases;
      o.rate_increases += qos->stats(t).rate_increases;
    }
  }
  return o;
}

/// One scenario on a fresh cluster, in exp::run_experiment's call order.
Scenario run_scenario(const Workload& w, LoopTracer* tracer) {
  const exp::ExperimentParams& p = w.params;
  Scenario sc;
  Clock::time_point mark = Clock::now();
  const auto lap = [&sc, &mark](Phase phase) {
    const Clock::time_point now = Clock::now();
    sc.seconds[phase] += seconds_between(mark, now);
    mark = now;
  };

  const Rng root{p.seed};
  Rng catalog_rng = root.fork("catalog");
  dfs::FileDirectory directory = workload::generate_catalog(p.catalog, catalog_rng);
  lap(kCatalog);

  dfs::ClusterConfig config = p.cluster.value_or(exp::paper_cluster_config());
  config.mode = p.mode;
  config.policy = p.policy;
  config.replication = p.replication;
  config.deletion = p.deletion;
  config.negotiation = p.negotiation;
  config.tenants = p.tenants;
  config.qos_controller = p.qos_controller;
  config.exec_shards = p.shards;
  config.layout = p.layout;
  config.seed = root.fork("cluster").seed();
  auto built = dfs::Cluster::build(std::move(config), std::move(directory));
  if (!built.is_ok()) die("cluster build failed: " + built.status().to_string());
  std::unique_ptr<dfs::Cluster> owner = std::move(built).take();
  dfs::Cluster& cluster = *owner;
  lap(kBuild);

  Rng placement_rng = root.fork("placement");
  const Status placed = p.layout.is_ec()
                            ? workload::place_stripes(cluster, p.layout)
                            : workload::place_static_replicas(cluster, p.placement, placement_rng);
  if (!placed.is_ok()) die("placement failed: " + placed.to_string());
  cluster.start();
  lap(kPlacement);

  Rng pattern_rng = root.fork("pattern");
  std::vector<workload::AccessEvent> pattern;
  SimTime window;
  if (p.tenant_pattern.has_value()) {
    pattern = workload::generate_tenant_pattern(cluster.directory(), *p.tenant_pattern,
                                                pattern_rng);
    window = p.tenant_pattern->duration;
  } else {
    const workload::PatternParams params = p.pattern.value_or(exp::paper_pattern_params(p.users));
    pattern = workload::generate_pattern(cluster.directory(), params, pattern_rng);
    window = params.duration;
  }
  lap(kPattern);

  Ingest ingest;
  auto scheduler = std::make_unique<workload::RequestScheduler>(cluster, std::move(pattern));
  if (p.tenant_pattern.has_value() && cluster.qos() != nullptr) {
    scheduler->set_user_map(tenant_user_map(*p.tenant_pattern, *cluster.qos()));
  }
  scheduler->schedule(p.start_offset);
  const SimTime pattern_end = p.start_offset + window;
  cluster.gc().start(pattern_end);
  if (cluster.qos() != nullptr) cluster.start_qos_controller(pattern_end);
  if (w.ingest) schedule_writes(cluster, root, p.start_offset, window, ingest);
  for (const auto& [offset, rm] : w.crashes) {
    cluster.simulator().schedule_at(p.start_offset + offset,
                                    [&cluster, rm = rm] { cluster.fail_rm(rm); });
  }
  lap(kSchedule);

  if (tracer != nullptr) tracer->begin(cluster, mark);
  cluster.simulator().run_until(pattern_end);
  cluster.simulator().run();
  lap(kLoop);
  if (tracer != nullptr) tracer->end();

  // The same reporting work as exp::run_experiment, obs snapshot included.
  const SimTime end = cluster.simulator().now();
  const std::vector<stats::RmQosSummary> per_rm = stats::collect_rm_summaries(cluster, end);
  const std::vector<stats::TenantSummary> per_tenant =
      stats::collect_tenant_summaries(cluster, end);
  obs::MetricsRegistry registry;
  stats::collect_obs_metrics(cluster, registry);
  const std::vector<obs::MetricSample> obs_metrics = registry.snapshot();
  lap(kReport);

  sc.out = collect_outputs(cluster, *scheduler, ingest, per_rm, per_tenant);
  if (!scheduler->drained()) {
    sc.problems.push_back("scheduler not drained: " + std::to_string(sc.out.reads) +
                          " opens dispatched, " + std::to_string(sc.out.reads_completed) +
                          " completed, " + std::to_string(sc.out.reads_failed) + " failed");
  }
  if (ingest.acknowledged.size() + ingest.failed != ingest.files.size()) {
    sc.problems.push_back("writes not drained: " + std::to_string(ingest.files.size()) +
                          " issued, " + std::to_string(ingest.acknowledged.size()) +
                          " acknowledged, " + std::to_string(ingest.failed) + " failed");
  }
  for (const dfs::FileId id : ingest.acknowledged) {
    if (cluster.mm().replica_count(id) == 0) {
      sc.problems.push_back("acknowledged write " + std::to_string(id) + " has no replica");
      break;
    }
  }

  mark = Clock::now();
  scheduler.reset();
  owner.reset();
  lap(kTeardown);
  return sc;
}

/// The outputs exp::run_experiment also reports must match it exactly.
void check_reference(const exp::ExperimentResult& ref, const Outputs& o,
                     std::vector<std::string>& problems) {
  const auto expect = [&problems](bool ok, const char* what) {
    if (!ok) problems.push_back(std::string{"differs from exp::run_experiment: "} + what);
  };
  expect(o.events == ref.executed_events, "events");
  expect(o.reads == ref.requests, "ops");
  expect(o.reads_completed == ref.completed, "completed ops");
  expect(o.reads_failed == ref.failed, "failed ops");
  expect(o.messages == ref.control_messages, "messages");
  expect(o.bytes == ref.control_bytes, "bytes");
  expect(o.overalloc_ratio == ref.overallocate_ratio, "R_OA");
  expect(o.negotiation_ms() == ref.mean_negotiation_ms, "negotiation mean");
}

// ---------------------------------------------------------------- metrics --

/// kEndToEnd and kLayer metrics are what --trace 0 / --trace 1 report in the
/// result line; kDetail metrics are printed and written to the document only.
enum class Level : std::uint8_t { kEndToEnd, kLayer, kDetail };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricGoal goal = MetricGoal::kInfo;
  Level level = Level::kDetail;
  std::string spread;  // "min-max over n reps" for medians, empty otherwise
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out = "build-bench/e2e";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\nworkloads:",
               problem.c_str());
  for (const std::string_view w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.size()), w.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string{flag});
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (value.find_first_not_of("0123456789") != std::string::npos) {
        usage("--seed takes a non-negative integer");
      }
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!std::isfinite(args.seconds) || args.seconds <= 0.0) {
        usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage("unknown flag " + std::string{flag});
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage("bad number for " + std::string{flag} + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

void write_chrome_trace(const std::string& path, const std::vector<Scenario>& scenarios,
                        const LoopTracer& tracer) {
  std::ofstream file{path};
  if (!file) die("cannot write " + path);
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // One track per repetition; the last one is the traced repetition, whose
  // loop span carries the per-layer busy time.
  bool first = true;
  for (std::size_t rep = 0; rep < scenarios.size(); ++rep) {
    const bool traced = rep + 1 == scenarios.size();
    double start_us = 0.0;
    for (std::size_t ph = 0; ph < kPhaseCount; ++ph) {
      const double dur_us = scenarios[rep].seconds[ph] * 1e6;
      file << (first ? "" : ",") << "\n{\"name\":\"" << kPhaseNames[ph]
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << rep + 1 << ",\"ts\":" << start_us
           << ",\"dur\":" << dur_us;
      if (traced && ph == kLoop) {
        file << ",\"args\":{";
        for (std::size_t l = 0; l < kLayerCount; ++l) {
          file << (l == 0 ? "" : ",") << "\"" << kLayerNames[l] << ".busy_s\":" << tracer.busy_s(l);
        }
        file << "}";
      }
      file << "}";
      first = false;
      start_us += dur_us;
    }
    file << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << rep + 1
         << ",\"args\":{\"name\":\"" << (traced ? "traced rep" : "rep " + std::to_string(rep + 1))
         << "\"}}";
  }
  file << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::optional<Workload> found = make_workload(args.workload, args.seed);
  if (!found.has_value()) usage("unknown workload " + args.workload);
  const Workload& w = *found;

  // Peak RSS is read after the warm-up: one scenario in a fresh process, so
  // it does not depend on how many repetitions fit in --seconds.
  const Scenario warmup = run_scenario(w, nullptr);
  const double rss_mb = peak_rss_mb();
  std::vector<Scenario> timed;
  const Clock::time_point measure_start = Clock::now();
  while (timed.size() < kMinReps ||
         seconds_between(measure_start, Clock::now()) < args.seconds) {
    timed.push_back(run_scenario(w, nullptr));
  }
  LoopTracer tracer;
  std::optional<Scenario> traced;
  if (args.trace) traced = run_scenario(w, &tracer);
  std::optional<exp::ExperimentResult> reference;
  if (w.reference) reference = exp::run_experiment(w.params);

  // ------------------------------------------------------------- checks --
  std::vector<std::string> problems;
  std::vector<const Scenario*> all{&warmup};
  for (const Scenario& s : timed) all.push_back(&s);
  if (traced.has_value()) all.push_back(&*traced);
  const Outputs& out = timed.front().out;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Scenario* s : all) {
    attempted += s->out.ops();
    if (!s->problems.empty()) failed += s->out.ops();
    problems.insert(problems.end(), s->problems.begin(), s->problems.end());
    if (!(s->out == out)) problems.emplace_back("simulated outputs differ between repetitions");
  }
  if (reference.has_value()) check_reference(*reference, out, problems);
  if (traced.has_value()) {
    std::uint64_t events = 0;
    double busy = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      events += tracer.events(l);
      busy += tracer.busy_s(l);
    }
    if (events != traced->out.events) {
      problems.push_back("traced layer events sum to " + std::to_string(events) + ", not " +
                         std::to_string(traced->out.events));
    }
    const double loop = traced->seconds[kLoop];
    if (busy > loop || busy < 0.99 * loop) {
      problems.push_back("traced layer busy time sums to " + std::to_string(busy) +
                         " s, not within 1% of trace.loop_s " + std::to_string(loop));
    }
  }
  const bool correct = problems.empty();

  // ------------------------------------------------------------ metrics --
  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value, std::string unit, MetricGoal goal,
                              Level level) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), goal, level, ""});
  };
  const auto add_median = [&](std::string name, const auto& of, MetricGoal goal, Level level) {
    std::vector<double> values;
    for (const Scenario& s : timed) values.push_back(of(s));
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    char spread[96];
    std::snprintf(spread, sizeof spread, "%.4f-%.4f over %zu reps", *lo, *hi, values.size());
    add(std::move(name), median(values), "s", goal, level);
    metrics.back().spread = spread;
  };
  const auto exact = MetricGoal::kExact;
  const auto info = MetricGoal::kInfo;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  add_median("wall_s", [](const Scenario& s) { return s.wall_s(); }, MetricGoal::kLowerIsBetter,
             Level::kEndToEnd);
  add_median("setup_s", [](const Scenario& s) { return s.setup_s(); },
             MetricGoal::kLowerIsBetter, Level::kEndToEnd);
  add_median("loop_s", [](const Scenario& s) { return s.seconds[kLoop]; },
             MetricGoal::kLowerIsBetter, Level::kEndToEnd);
  const double loop_s = metrics.back().value;
  add("peak_rss_mb", rss_mb, "MB", MetricGoal::kLowerIsBetter, Level::kEndToEnd);
  add("stored_bytes_per_user_byte", ratio(out.stored_bytes, out.user_bytes), "ratio", exact,
      Level::kEndToEnd);

  for (std::size_t ph = 0; ph < kPhaseCount; ++ph) {
    if (kPhaseMetrics[ph].empty()) continue;
    add_median(std::string{kPhaseMetrics[ph]}, [ph](const Scenario& s) { return s.seconds[ph]; },
               info, Level::kLayer);
  }
  add("sim.events", count(out.events), "count", exact, Level::kLayer);
  add("sim.events_per_s", count(out.events) / loop_s, "1/s", MetricGoal::kHigherIsBetter,
      Level::kLayer);
  if (traced.has_value()) {
    add("sim.peak_pending", count(tracer.peak_pending()), "count", exact, Level::kLayer);
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const std::string layer{kLayerNames[l]};
      add(layer + ".busy_s", tracer.busy_s(l), "s", info,
          kBusyReported[l] ? Level::kLayer : Level::kDetail);
      add(layer + ".events", count(tracer.events(l)), "count", exact,
          kEventsReported[l] ? Level::kLayer : Level::kDetail);
    }
  }
  // The simulated QoS outcomes differ widely between seeds (random placement
  // on the imbalanced cluster, which files sit on crashed RMs), so they are
  // per-layer metrics rather than bounded end-to-end ones.
  add("dfs.client.fail_rate", ratio(out.failed_ops(), out.ops()), "ratio", exact, Level::kLayer);
  add("dfs.client.negotiation_ms_mean", out.negotiation_ms(), "sim_ms", exact, Level::kLayer);
  add("dfs.client.negotiations", count(out.negotiations), "count", exact, Level::kLayer);
  add("dfs.client.bid_timeouts", count(out.bid_timeouts), "count", exact, Level::kLayer);
  add("dfs.client.ec_reads", count(out.ec_reads), "count", exact, Level::kLayer);
  add("dfs.client.ec_degraded_reads", count(out.ec_degraded_reads), "count", exact, Level::kLayer);
  add("dfs.client.ec_failed_reads", count(out.ec_failed_reads), "count", exact, Level::kLayer);
  add("dfs.client.replicas_written", count(out.replicas_written), "count", exact, Level::kLayer);
  add("dfs.client.writes_failed", count(out.client_writes_failed), "count", exact, Level::kLayer);
  add("dfs.mm.queries", count(out.mm_queries), "count", exact, Level::kLayer);
  add("dfs.replication.rounds", count(out.replication_rounds), "count", exact, Level::kLayer);
  add("dfs.replication.copies", count(out.copies), "count", exact, Level::kLayer);
  add("dfs.replication.accept_ratio", ratio(out.copies, out.copies + out.destination_rejects),
      "ratio", exact, Level::kLayer);
  add("dfs.gc.scans", count(out.gc_scans), "count", exact, Level::kLayer);
  add("dfs.gc.deletes", count(out.gc_deletes), "count", exact, Level::kLayer);
  add("storage.bytes_stored", count(out.stored_bytes), "B", exact, Level::kLayer);
  add("storage.overalloc_ratio", out.overalloc_ratio, "ratio", exact, Level::kLayer);
  add("qos.floor_violation_rate", out.floor_violation_rate, "ratio", exact, Level::kLayer);
  add("qos.throttled", count(out.qos_throttled), "count", exact, Level::kLayer);
  add("qos.rate_decreases", count(out.rate_decreases), "count", exact, Level::kLayer);
  add("qos.rate_increases", count(out.rate_increases), "count", exact, Level::kLayer);
  add("net.messages", count(out.messages), "count", exact, Level::kLayer);
  add("net.bytes", count(out.bytes), "B", exact, Level::kLayer);
  add("net.messages_per_op", ratio(out.messages, out.ops()), "ratio", exact, Level::kLayer);
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    // Kinds no workload sends stay out of the result line.
    const bool unused = kind == net::MessageKind::kResourceUpdate ||
                        kind == net::MessageKind::kRelease ||
                        kind == net::MessageKind::kReleaseAck ||
                        kind == net::MessageKind::kDeleteRequest ||
                        kind == net::MessageKind::kDeleteReply;
    add("net." + std::string{net::to_string(kind)}, count(out.messages_by_kind[k]), "count", exact,
        unused ? Level::kDetail : Level::kLayer);
  }
  if (traced.has_value()) {
    add("trace.loop_s", traced->seconds[kLoop], "s", info, Level::kLayer);
    add("trace.overhead", traced->seconds[kLoop] / loop_s, "ratio", info, Level::kLayer);
  }

  // ------------------------------------------------------------- output --
  std::printf("bench_e2e %s seed=%llu: warm-up + %zu timed reps%s%s, %llu ops/rep, %llu events/rep\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), timed.size(),
              traced ? " + traced rep" : "", reference ? " + exp::run_experiment" : "",
              static_cast<unsigned long long>(out.ops()),
              static_cast<unsigned long long>(out.events));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.spread.c_str());
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  if (correct) std::printf("checks: all passed\n");

  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  BenchReport report{"bench_e2e"};
  report.set_meta("workload", w.name);
  report.set_meta("seed", std::to_string(args.seed));
  report.set_meta("reps", std::to_string(timed.size()));
  report.set_meta("trace", args.trace ? "1" : "0");
  report.set_meta("sanitized", sanitized_build() ? "1" : "0");
  for (const Metric& m : metrics) report.add(m.name, m.value, m.unit, m.goal);
  const std::string doc_path = args.out + "/" + w.name + ".json";
  if (const Status s = report.write_file(doc_path); !s.is_ok()) die(s.to_string());
  std::printf("wrote %s\n", doc_path.c_str());
  if (traced.has_value()) {
    std::vector<Scenario> spans = timed;
    spans.push_back(*traced);
    const std::string trace_path = args.out + "/" + w.name + ".trace.json";
    write_chrome_trace(trace_path, spans, tracer);
    std::printf("wrote %s\n", trace_path.c_str());
  }

  const Level reported = args.trace ? Level::kLayer : Level::kEndToEnd;
  std::string line = "{\"correct\": " + std::string{correct ? "true" : "false"} +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.level != reported) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    line += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
