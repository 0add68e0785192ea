#!/usr/bin/env bash
# Build bench_e2e in build-bench/ and run the end-to-end benchmark.
#
#   bench/e2e/run.sh [WORKLOAD...]
#       Runs each workload (default: all four) in its own process, with its
#       traced repetition. Prints every metric by name with its unit and
#       writes build-bench/e2e/WORKLOAD.json (sqos-bench-v1, diffable with
#       tools/perf_gate) and build-bench/e2e/WORKLOAD.trace.json. Exits
#       non-zero if any output check fails.
#
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One run with these arguments passed to bench_e2e; its last stdout
#       line is the JSON result.
#
# BENCH_JOBS sets the build's parallelism (default 2).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

build=build-bench
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_PROJECT_INCLUDE="$PWD/bench/e2e/targets.cmake"
  fi
  cmake --build "$build" --target bench_e2e -j "${BENCH_JOBS:-2}"
} >&2
bin="$build/bench_e2e"

if [[ "${1:-}" == --* ]]; then
  exec "$bin" "$@"
fi

workloads=("$@")
if ((${#workloads[@]} == 0)); then
  workloads=(paper-day scale-2048 ingest-mix ec-tenants)
fi
status=0
for workload in "${workloads[@]}"; do
  "$bin" --workload "$workload" --trace 1 --out "$build/e2e" || status=1
done
exit "$status"
