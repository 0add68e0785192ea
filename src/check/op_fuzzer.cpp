#include "check/op_fuzzer.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <utility>

#include "check/invariant_auditor.hpp"
#include "dfs/ecnp_messages.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

// GCC 12's basic_string::_M_replace emits a bogus -Wrestrict at -O2+ when the
// string builders below get inlined (GCC PR105329). Nothing here aliases;
// silence the false positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace sqos::check {
namespace {

// Mean inter-operation gap. Dense enough that independent negotiations
// overlap within the bid -> data-request latency window — the race the
// RM-side firm admission exists to close (§VI.A.1).
constexpr double kMeanOpGapUs = 15'000.0;

}  // namespace

std::string FuzzOp::to_string() const {
  const std::string who = "DFSC" + std::to_string(actor);
  const std::string prefix = "+" + delay.to_string() + " ";
  switch (kind) {
    case Kind::kStream:
      return prefix + who + " stream file " + std::to_string(file);
    case Kind::kOpenClose:
      return prefix + who + " open file " + std::to_string(file) + ", release after " +
             std::to_string(arg) + " ms";
    case Kind::kWriteFile:
      return prefix + who + " write file " + std::to_string(file) + " (" +
             std::to_string(1 + arg % 2) + " copies)";
    case Kind::kPlaceReplica:
      return prefix + "place file " + std::to_string(file) + " on RM" + std::to_string(arg);
    case Kind::kDeleteReplica:
      return prefix + "delete replica of file " + std::to_string(file) + " on RM" +
             std::to_string(arg);
    case Kind::kModeFlip:
      return prefix + who + " switch to " + (arg != 0 ? "soft" : "firm") + " real-time";
    case Kind::kPause:
      return prefix + "pause";
    case Kind::kDrain:
      return prefix + "drain RM" + std::to_string(arg);
  }
  return "?";
}

std::string FuzzResult::repro_line() const {
  std::string line = "--seed=" + std::to_string(seed) +
                     " --ops=" + std::to_string(options.op_count) +
                     " --audit-every=" + std::to_string(options.audit_every);
  // Non-default topology flags ride along so the line reproduces big-cluster
  // runs too; default topologies keep the exact historical line.
  const FuzzOptions defaults;
  if (options.rm_count != defaults.rm_count) line += " --rms=" + std::to_string(options.rm_count);
  if (options.client_count != defaults.client_count) {
    line += " --clients=" + std::to_string(options.client_count);
  }
  if (options.mm_shards != defaults.mm_shards) {
    line += " --shards=" + std::to_string(options.mm_shards);
  }
  if (options.file_count != defaults.file_count) {
    line += " --files=" + std::to_string(options.file_count);
  }
  if (options.tenant_count != defaults.tenant_count) {
    line += " --tenants=" + std::to_string(options.tenant_count);
  }
  if (options.layout.is_ec()) line += " --layout=" + options.layout.token();
  if (options.with_faults) line += " --faults";
  if (options.mode == core::AllocationMode::kSoft) line += " --soft";
  if (options.inject_overallocation_bug) line += " --inject-overallocation-bug";
  return line;
}

std::string FuzzResult::report() const {
  std::string out;
  if (ok()) {
    out = "seed " + std::to_string(seed) + ": OK (" + std::to_string(schedule.size()) +
          " ops, " + std::to_string(executed_events) + " events, all invariants held)\n";
    return out;
  }
  out = "seed " + std::to_string(seed) + ": FAILED — " + std::to_string(violations.size()) +
        " invariant violation(s)\n";
  out += check::to_string(violations);
  out += "reproduce with: sqos_fuzz " + repro_line() + "\n";
  if (!trace_path.empty()) {
    out += "failure trace: " + trace_path + " (chrome://tracing / Perfetto)\n";
  }
  if (!faults.empty()) {
    out += "fault schedule:\n" + faults.to_string();
  }
  if (!minimized.empty()) {
    out += "minimized to " + std::to_string(minimized.size()) + "/" +
           std::to_string(schedule.size()) + " ops (" + std::to_string(minimize_runs) +
           " re-runs):\n";
    out += OpFuzzer::schedule_to_string(minimized);
  }
  return out;
}

std::string OpFuzzer::schedule_to_string(const std::vector<FuzzOp>& ops) {
  std::string out;
  for (const FuzzOp& op : ops) {
    out += "  ";
    out += op.to_string();
    out += '\n';
  }
  return out;
}

std::vector<FuzzOp> OpFuzzer::generate() const {
  Rng rng = Rng{options_.seed}.fork("ops");
  // stream, open/close, write, place, delete, mode-flip, pause. A soft-mode
  // flip anywhere in the schedule disarms the firm-cap law for the whole
  // run, so the over-allocation self-test keeps the schedule firm-only.
  const double flip_weight = options_.inject_overallocation_bug ? 0.0 : 3.0;
  const std::vector<double> weights{35.0, 15.0, 10.0, 10.0, 12.0, flip_weight, 15.0};

  std::vector<FuzzOp> ops;
  ops.reserve(options_.op_count);
  std::uint64_t next_write_id = 1000;
  for (std::size_t i = 0; i < options_.op_count; ++i) {
    FuzzOp op;
    // Burst with probability 0.2: same-instant operations negotiate on
    // identical bid snapshots and prefer the same highest-B_rem RM, the
    // sharpest race against the firm admission check.
    op.delay = rng.next_double() < 0.2
                   ? SimTime::zero()
                   : SimTime::micros(static_cast<std::int64_t>(rng.exponential(kMeanOpGapUs)));
    op.actor = static_cast<std::size_t>(rng.next_below(options_.client_count));
    const std::size_t kind = rng.weighted_index(weights);
    const auto catalog_file = [&] { return 1 + rng.next_below(options_.file_count); };
    switch (kind) {
      case 0:
        op.kind = FuzzOp::Kind::kStream;
        op.file = catalog_file();
        break;
      case 1:
        op.kind = FuzzOp::Kind::kOpenClose;
        op.file = catalog_file();
        op.arg = static_cast<std::uint64_t>(rng.uniform_int(100, 5000));  // hold ms
        break;
      case 2:
        op.kind = FuzzOp::Kind::kWriteFile;
        op.file = next_write_id++;
        op.arg = rng.next_below(6);  // replica count + bitrate selector
        break;
      case 3:
        // Whole-file replica placement is a replication-layout op; EC runs
        // substitute a rebalance drain over the same RNG draws, so replication
        // seeds replay byte-identically while EC seeds exercise shard moves.
        op.kind = options_.layout.is_ec() ? FuzzOp::Kind::kDrain : FuzzOp::Kind::kPlaceReplica;
        op.file = catalog_file();
        op.arg = rng.next_below(options_.rm_count);
        break;
      case 4:
        op.kind = FuzzOp::Kind::kDeleteReplica;
        op.file = catalog_file();
        op.arg = rng.next_below(options_.rm_count);
        break;
      case 5:
        op.kind = FuzzOp::Kind::kModeFlip;
        op.arg = rng.next_below(2);
        break;
      default:
        op.kind = FuzzOp::Kind::kPause;
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

bool OpFuzzer::expect_firm_cap(const std::vector<FuzzOp>& ops,
                               const FaultSchedule& faults) const {
  if (options_.mode != core::AllocationMode::kFirm) return false;
  if (faults.perturbs_caps()) return false;
  return std::none_of(ops.begin(), ops.end(), [](const FuzzOp& op) {
    return op.kind == FuzzOp::Kind::kModeFlip && op.arg != 0;
  });
}

OpFuzzer::RunOutcome OpFuzzer::execute(const std::vector<FuzzOp>& ops,
                                       const FaultSchedule& faults, bool expect_firm,
                                       bool capture_trace) const {
  // Catalog — bitrates/durations drawn from their own seed stream so the
  // same files exist regardless of how the op schedule evolves.
  Rng catalog_rng = Rng{options_.seed}.fork("catalog");
  std::vector<dfs::FileMeta> metas;
  for (std::size_t k = 1; k <= options_.file_count; ++k) {
    dfs::FileMeta f;
    f.id = k;
    f.name = "fuzz-" + std::to_string(k);
    f.bitrate = Bandwidth::mbps(catalog_rng.uniform(0.5, 3.0));
    const double duration_s = catalog_rng.uniform(5.0, 20.0);
    f.size = Bytes::of(static_cast<std::int64_t>(f.bitrate.bps() * duration_s));
    f.popularity = 1.0 / static_cast<double>(k);
    metas.push_back(std::move(f));
  }

  dfs::ClusterConfig cfg;
  // Each 80 Mbit/s machine holds at most five 16 Mbit/s RMs; topologies too
  // big for the configured machine count grow extra machines instead of
  // failing the dispatched-bandwidth check at build. The round-robin RM
  // placement is unchanged for every (rm_count, machine_count) pair that
  // already fit, so existing corpus seeds replay byte-identically.
  const std::size_t machine_count =
      std::max(options_.machine_count, (options_.rm_count + 4) / 5);
  for (std::size_t m = 0; m < machine_count; ++m) {
    cfg.machines.push_back(dfs::MachineSpec{"m" + std::to_string(m), Bandwidth::mbps(80.0)});
  }
  for (std::size_t r = 0; r < options_.rm_count; ++r) {
    cfg.rms.push_back(dfs::RmSpec{"RM" + std::to_string(r), Bandwidth::mbps(16.0),
                                  Bytes::gib(1.0), r % machine_count});
  }
  cfg.client_count = options_.client_count;
  cfg.mm_shards = options_.mm_shards;
  cfg.mode = options_.mode;
  cfg.layout = options_.layout;
  cfg.seed = options_.seed;
  // Mixed-tenant population: contiguous near-even client blocks with
  // staggered SLOs (floors ramp up, ceilings ramp wider), a pure function of
  // (tenant_count, client_count) so replays rebuild the identical tenancy.
  if (options_.tenant_count > 0) {
    const std::size_t tenants = std::min(options_.tenant_count, options_.client_count);
    const std::size_t base = options_.client_count / tenants;
    const std::size_t rem = options_.client_count % tenants;
    for (std::size_t t = 0; t < tenants; ++t) {
      qos::TenantSlo slo;
      slo.clients = base + (t < rem ? 1 : 0);
      slo.floor = Bandwidth::mbps(0.5 + 0.5 * static_cast<double>(t));
      slo.ceiling = Bandwidth::mbps(8.0 + 2.0 * static_cast<double>(t));
      cfg.tenants.push_back(std::move(slo));
    }
    cfg.qos_controller.enabled = true;
    cfg.qos_controller.period = SimTime::seconds(2.0);
  }

  auto built = dfs::Cluster::build(std::move(cfg), dfs::FileDirectory{std::move(metas)});
  assert(built.is_ok());
  std::unique_ptr<dfs::Cluster> cluster = std::move(built).take();
  sim::Simulator& sim = cluster->simulator();

  // The auditor owns the post-event hook, so no queue-depth probe here; the
  // recorder passively collects spans/instants and never schedules events.
  std::unique_ptr<obs::Recorder> recorder;
  if (capture_trace) {
    recorder = std::make_unique<obs::Recorder>(sim);
    cluster->attach_observability(*recorder);
  }

  // Initial placement from its own stream. Replication: 1-2 copies per file
  // on a deterministic run of RMs. EC: the whole stripe on a deterministic
  // run of k + m distinct RMs (shard_count <= rm_count was validated by the
  // caller, so the modular walk never revisits an RM).
  Rng place_rng = Rng{options_.seed}.fork("place");
  if (options_.layout.is_ec()) {
    assert(options_.layout.shard_count() <= options_.rm_count);
    std::vector<std::size_t> stripe_rms(options_.layout.shard_count());
    for (std::size_t k = 1; k <= options_.file_count; ++k) {
      const std::size_t first = static_cast<std::size_t>(place_rng.next_below(options_.rm_count));
      for (std::size_t j = 0; j < stripe_rms.size(); ++j) {
        stripe_rms[j] = (first + j) % options_.rm_count;
      }
      (void)cluster->place_stripe(k, options_.layout.k, options_.layout.m, stripe_rms);
    }
  } else {
    for (std::size_t k = 1; k <= options_.file_count; ++k) {
      const std::size_t copies = 1 + static_cast<std::size_t>(place_rng.next_below(2));
      const std::size_t first = static_cast<std::size_t>(place_rng.next_below(options_.rm_count));
      for (std::size_t j = 0; j < copies; ++j) {
        (void)cluster->place_replica((first + j) % options_.rm_count, k);
      }
    }
  }

  cluster->start();
  sim.run_until(sim.now() + SimTime::seconds(1.0));  // registration settles

  InvariantAuditor::Options audit_options;
  audit_options.expect_firm_cap = expect_firm;
  InvariantAuditor auditor{*cluster, audit_options};
  auditor.install(options_.audit_every);

  if (options_.inject_overallocation_bug) {
    for (std::size_t r = 0; r < cluster->rm_count(); ++r) {
      cluster->rm(r).test_only_skip_firm_admission(true);
    }
  }
  faults.install(*cluster);

  // Tenanted runs tick the AIMD controller across the whole schedule (same
  // horizon formula as run(): op delays plus the 30 s drain tail), so the
  // tenant-conservation invariant audits under live rate adjustment.
  if (options_.tenant_count > 0) {
    SimTime controller_until = sim.now() + SimTime::seconds(30.0);
    for (const FuzzOp& op : ops) controller_until += op.delay;
    cluster->start_qos_controller(controller_until);
  }

  for (const FuzzOp& op : ops) {
    sim.run_until(sim.now() + op.delay);
    apply(*cluster, op);
  }
  sim.run();  // drain every stream, fault window and protocol exchange

  // One anti-entropy round heals MM entries lost to partitions or crashes,
  // then the cluster must pass the quiescent catalog.
  cluster->start_resource_refresh(SimTime::seconds(1.0), sim.now() + SimTime::seconds(3.5));
  sim.run();

  auditor.uninstall();
  (void)auditor.audit_quiescent();

  RunOutcome outcome;
  outcome.violations = auditor.violations();
  outcome.executed_events = sim.executed_events();
  if (recorder != nullptr) outcome.trace_json = recorder->trace.to_json();
  return outcome;
}

void OpFuzzer::apply(dfs::Cluster& cluster, const FuzzOp& op) const {
  const std::size_t actor = op.actor % cluster.client_count();
  switch (op.kind) {
    case FuzzOp::Kind::kStream:
      if (cluster.directory().contains(op.file)) cluster.client(actor).stream_file(op.file);
      break;

    case FuzzOp::Kind::kOpenClose: {
      if (!cluster.directory().contains(op.file)) break;
      dfs::DfsClient* client = &cluster.client(actor);
      sim::Simulator* sim = &cluster.simulator();
      const SimTime hold = SimTime::millis(static_cast<std::int64_t>(op.arg));
      client->open(op.file, [client, sim, hold](Result<std::uint64_t> opened) {
        if (!opened.is_ok()) return;  // firm refusal is a legal outcome
        const std::uint64_t session = opened.value();
        sim->schedule_after(hold, [client, session] { client->release(session); });
      });
      break;
    }

    case FuzzOp::Kind::kWriteFile: {
      if (!cluster.directory().contains(op.file)) {
        // Metadata is a pure function of the op, so replays and minimized
        // schedules register the identical file.
        dfs::FileMeta meta;
        meta.id = op.file;
        meta.name = "fuzz-write-" + std::to_string(op.file);
        meta.bitrate = Bandwidth::mbps(0.5 + 0.5 * static_cast<double>(op.arg % 3));
        meta.size = Bytes::of(static_cast<std::int64_t>(meta.bitrate.bps() * 8.0));
        meta.popularity = 0.5;
        if (!cluster.add_file(std::move(meta)).is_ok()) break;
      }
      cluster.client(actor).write_file(op.file, 1 + op.arg % 2);
      break;
    }

    case FuzzOp::Kind::kPlaceReplica:
      if (cluster.directory().contains(op.file)) {
        (void)cluster.place_replica(static_cast<std::size_t>(op.arg) % cluster.rm_count(),
                                    op.file);
      }
      break;

    case FuzzOp::Kind::kDeleteReplica: {
      const std::size_t index = static_cast<std::size_t>(op.arg) % cluster.rm_count();
      dfs::ResourceManager& rm = cluster.rm(index);
      // Guards keep the op a no-op when its precondition vanished (e.g. the
      // placing op was removed during minimization) instead of corrupting
      // state — the same arbitration the GC agent performs (§III.B).
      if (!rm.is_online() || !rm.has_replica(op.file) || rm.has_active_flow_for(op.file) ||
          rm.has_pending_write(op.file) || rm.has_pending_incoming(op.file)) {
        break;
      }
      dfs::DeleteRequestMsg request;
      request.rm = rm.node_id();
      request.file = op.file;
      request.min_replicas = 1;
      dfs::ResourceManager* rm_ptr = &rm;
      dfs::MetadataManager& owner = cluster.mm().shard_for(op.file);
      net::Network* net = &cluster.network();
      net->send(rm.node_id(), owner.node_id(), net::MessageKind::kDeleteRequest,
                dfs::DeleteRequestMsg::estimated_size(), [net, rm_ptr, &owner, request] {
                  const dfs::DeleteReplyMsg reply = owner.handle_delete_request(request);
                  net->send(owner.node_id(), rm_ptr->node_id(), net::MessageKind::kDeleteReply,
                            dfs::DeleteReplyMsg::estimated_size(), [rm_ptr, reply] {
                              if (!reply.approved || !rm_ptr->is_online()) return;
                              (void)rm_ptr->delete_replica(reply.file);
                            });
                });
      break;
    }

    case FuzzOp::Kind::kModeFlip:
      cluster.client(actor).set_allocation_mode(op.arg != 0 ? core::AllocationMode::kSoft
                                                            : core::AllocationMode::kFirm);
      break;

    case FuzzOp::Kind::kPause:
      break;

    case FuzzOp::Kind::kDrain: {
      dfs::ResourceManager& rm =
          cluster.rm(static_cast<std::size_t>(op.arg) % cluster.rm_count());
      if (rm.is_online()) cluster.replication().drain(rm);
      break;
    }
  }
}

std::vector<FuzzOp> OpFuzzer::minimize(const std::vector<FuzzOp>& schedule,
                                       const FaultSchedule& faults, bool expect_firm,
                                       const std::string& invariant,
                                       std::uint64_t& runs) const {
  const auto still_fails = [&](const std::vector<FuzzOp>& candidate) {
    ++runs;
    const RunOutcome outcome = execute(candidate, faults, expect_firm, /*capture_trace=*/false);
    return std::any_of(outcome.violations.begin(), outcome.violations.end(),
                       [&](const Violation& v) { return v.invariant == invariant; });
  };

  std::vector<FuzzOp> current = schedule;
  std::size_t chunk = std::max<std::size_t>(1, current.size() / 2);
  while (runs < options_.max_minimize_runs) {
    for (std::size_t start = 0;
         start < current.size() && runs < options_.max_minimize_runs;) {
      const std::size_t stop = std::min(current.size(), start + chunk);
      if (stop - start == current.size()) break;  // never try the empty schedule
      std::vector<FuzzOp> candidate;
      candidate.reserve(current.size() - (stop - start));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(), current.begin() + static_cast<std::ptrdiff_t>(stop),
                       current.end());
      if (still_fails(candidate)) {
        current = std::move(candidate);  // keep `start`: the next chunk slid in
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return current;
}

FuzzResult OpFuzzer::run() {
  FuzzResult result;
  result.seed = options_.seed;
  result.options = options_;
  result.schedule = generate();

  SimTime horizon = SimTime::zero();
  for (const FuzzOp& op : result.schedule) horizon += op.delay;
  horizon += SimTime::seconds(30.0);

  if (options_.with_faults) {
    Rng fault_rng = Rng{options_.seed}.fork("faults");
    result.faults = FaultSchedule::random(fault_rng, options_.rm_count, options_.client_count,
                                          options_.mm_shards, horizon);
  }

  const bool expect_firm = expect_firm_cap(result.schedule, result.faults);
  RunOutcome outcome = execute(result.schedule, result.faults, expect_firm,
                               /*capture_trace=*/!options_.trace_path.empty());
  result.violations = std::move(outcome.violations);
  result.executed_events = outcome.executed_events;

  if (!result.ok() && !options_.trace_path.empty()) {
    std::ofstream out{options_.trace_path, std::ios::binary | std::ios::trunc};
    out << outcome.trace_json;
    if (out) result.trace_path = options_.trace_path;
  }

  if (!result.ok() && options_.minimize) {
    result.minimized = minimize(result.schedule, result.faults, expect_firm,
                                result.violations.front().invariant, result.minimize_runs);
  }
  return result;
}

}  // namespace sqos::check
