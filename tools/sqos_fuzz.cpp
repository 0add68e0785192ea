// sqos_fuzz — seeded chaos fuzzing of the DFS cluster from the command line.
//
// Generates a random operation schedule (streams, sessions, writes, replica
// placement/deletion, mode flips), optionally composes a random fault
// schedule (RM crashes, partitions, slow disks), executes it against a fresh
// cluster with the InvariantAuditor installed, and exits non-zero when any
// cluster-wide invariant broke. Every run is a pure function of --seed: a
// failure prints the exact flags that reproduce it plus a minimized
// schedule.
//
//   sqos_fuzz --seed=7 --ops=50000 --audit-every=1
//   sqos_fuzz --seeds=10 --faults          # 10 consecutive seeds with chaos
//   sqos_fuzz --seed=7 --inject-overallocation-bug   # harness self-test
//
// Flags (defaults in brackets):
//   --seed=N          [1]    base seed
//   --seeds=N         [1]    number of consecutive seeds to run
//   --ops=N           [400]  operations per run
//   --audit-every=N   [1]    audit after every Nth simulator event
//   --rms=N --clients=N --shards=N --files=N   cluster topology
//   --tenants=N       [0]    split the clients into N contiguous tenants with
//                            staggered SLOs and run the AIMD controller; 0 =
//                            the untenanted cluster (historical behavior)
//   --layout=replication|ec:k,m  [replication]  storage layout; ec stripes
//                            the catalog as k data + m parity shards
//                            (k+m <= --rms), streams read through the
//                            degraded-read path, and replica-placement ops
//                            become rebalance drains
//   --faults                 compose a random fault schedule
//   --soft                   soft real-time base mode
//   --no-minimize            skip schedule minimization on failure
//   --jobs=N          [1]    run seeds on N worker threads; every run is
//                            seed-pure and reports print in seed order, so
//                            verdicts and repro lines match --jobs=1 exactly
//                            (only live [WARN] diagnostics may interleave)
//   --inject-overallocation-bug   RMs skip firm admission (must be caught)
//   --print-schedule         dump the generated op schedule before running
//   --trace-on-failure[=PREFIX]   [fuzz-trace] on invariant failure, write a
//                            Chrome trace of the full run (not the minimize
//                            re-runs) to PREFIX-seed<N>.json; recording adds
//                            no events, so verdicts and repro lines are
//                            unchanged
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/parallel_runner.hpp"

#include "check/op_fuzzer.hpp"

namespace {

bool parse_u64(const char* arg, const char* flag, std::uint64_t& out) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0 || arg[len] != '=') return false;
  out = std::strtoull(arg + len + 1, nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqos;

  check::FuzzOptions options;
  std::uint64_t seeds = 1;
  std::uint64_t jobs = 1;
  bool print_schedule = false;
  std::string trace_prefix;  // empty = no failure traces

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::uint64_t v = 0;
    if (parse_u64(arg, "--seed", options.seed)) continue;
    if (parse_u64(arg, "--seeds", seeds)) continue;
    if (parse_u64(arg, "--jobs", jobs)) continue;
    if (parse_u64(arg, "--ops", v)) { options.op_count = static_cast<std::size_t>(v); continue; }
    if (parse_u64(arg, "--audit-every", options.audit_every)) continue;
    if (parse_u64(arg, "--rms", v)) { options.rm_count = static_cast<std::size_t>(v); continue; }
    if (parse_u64(arg, "--clients", v)) {
      options.client_count = static_cast<std::size_t>(v);
      continue;
    }
    if (parse_u64(arg, "--shards", v)) {
      options.mm_shards = static_cast<std::size_t>(v);
      continue;
    }
    if (parse_u64(arg, "--files", v)) {
      options.file_count = static_cast<std::size_t>(v);
      continue;
    }
    if (parse_u64(arg, "--tenants", v)) {
      options.tenant_count = static_cast<std::size_t>(v);
      continue;
    }
    if (std::strncmp(arg, "--layout=", 9) == 0) {
      auto layout = storage::LayoutPolicy::parse(arg + 9);
      if (!layout.is_ok()) {
        std::fprintf(stderr, "%s\n", layout.status().to_string().c_str());
        return 2;
      }
      options.layout = layout.value();
      continue;
    }
    if (std::strcmp(arg, "--faults") == 0) { options.with_faults = true; continue; }
    if (std::strcmp(arg, "--soft") == 0) {
      options.mode = core::AllocationMode::kSoft;
      continue;
    }
    if (std::strcmp(arg, "--no-minimize") == 0) { options.minimize = false; continue; }
    if (std::strcmp(arg, "--inject-overallocation-bug") == 0) {
      options.inject_overallocation_bug = true;
      continue;
    }
    if (std::strcmp(arg, "--print-schedule") == 0) { print_schedule = true; continue; }
    if (std::strcmp(arg, "--trace-on-failure") == 0) {
      trace_prefix = "fuzz-trace";
      continue;
    }
    if (std::strncmp(arg, "--trace-on-failure=", 19) == 0) {
      trace_prefix = arg + 19;
      continue;
    }
    std::fprintf(stderr, "unknown flag %s (see header comment)\n", arg);
    return 2;
  }

  if (options.layout.is_ec() && options.layout.shard_count() > options.rm_count) {
    std::fprintf(stderr, "EC(%u,%u) needs %zu RMs but --rms=%zu\n",
                 static_cast<unsigned>(options.layout.k),
                 static_cast<unsigned>(options.layout.m), options.layout.shard_count(),
                 options.rm_count);
    return 2;
  }

  // Schedules are dumped up front (serially, in seed order) so the fan-out
  // below never interleaves its output with the reports.
  if (print_schedule) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      check::FuzzOptions run_options = options;
      run_options.seed = options.seed + s;
      check::OpFuzzer fuzzer{run_options};
      std::fprintf(stdout, "schedule for seed %llu:\n%s",
                   static_cast<unsigned long long>(run_options.seed),
                   check::OpFuzzer::schedule_to_string(fuzzer.generate()).c_str());
    }
  }

  // Each seed is an independent pure function of its options, so the corpus
  // replay fans out over the pool; reports print afterwards in seed order,
  // so verdicts, violations and repro lines are identical at every --jobs
  // value (Log warnings are emitted live by workers and may interleave).
  exp::ParallelRunner pool{static_cast<std::size_t>(jobs)};
  const std::vector<check::FuzzResult> results =
      pool.map<check::FuzzResult>(static_cast<std::size_t>(seeds),
                                  [&options, &trace_prefix](std::size_t s) {
        check::FuzzOptions run_options = options;
        run_options.seed = options.seed + s;
        if (!trace_prefix.empty()) {
          run_options.trace_path =
              trace_prefix + "-seed" + std::to_string(run_options.seed) + ".json";
        }
        check::OpFuzzer fuzzer{run_options};
        return fuzzer.run();
      });

  int failures = 0;
  for (const check::FuzzResult& result : results) {
    std::fprintf(result.ok() ? stdout : stderr, "%s", result.report().c_str());
    if (!result.ok()) ++failures;
  }

  if (options.inject_overallocation_bug && failures == 0) {
    // The self-test *requires* the auditor to catch the planted bug.
    std::fprintf(stderr, "injected over-allocation bug was NOT caught by any seed\n");
    return 1;
  }
  return options.inject_overallocation_bug ? 0 : (failures == 0 ? 0 : 1);
}
