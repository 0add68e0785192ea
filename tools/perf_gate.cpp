// perf_gate — compare a benchmark run against a checked-in baseline.
//
//   perf_gate --baseline=bench/baselines/BENCH_core.json --current=BENCH_core.json
//
// Exit codes:
//   0  within tolerance (or baseline missing — first run on a new machine /
//      metric set records a baseline instead of failing, or --warn-only)
//   1  regression beyond tolerance (a gated metric got worse, an exact
//      metric drifted, or a baseline metric disappeared; goal=info metrics
//      — wall times, jobs counts, speedups — never gate and may come and go)
//   2  usage error / unreadable current run
//
// meta entries are never compared: meta.jobs only describes how the run was
// executed, and the exact cells are byte-identical at every jobs value, so a
// baseline recorded at one jobs setting gates runs at any other.
//
// Flags (defaults in brackets):
//   --baseline=PATH            checked-in reference document (required)
//   --current=PATH             freshly produced document (required)
//   --tolerance=F       [0.20] relative slack for higher/lower metrics
//   --exact-tolerance=F [1e-9] relative slack for goal=exact metrics
//   --warn-only                report regressions but exit 0 (fork PRs)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/bench_json.hpp"

namespace {

const char* flag_value(const char* arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0 || arg[len] != '=') return nullptr;
  return arg + len + 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqos;

  std::string baseline_path;
  std::string current_path;
  GateOptions options;
  bool warn_only = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = flag_value(arg, "--baseline")) { baseline_path = v; continue; }
    if (const char* v = flag_value(arg, "--current")) { current_path = v; continue; }
    if (const char* v = flag_value(arg, "--tolerance")) { options.tolerance = std::atof(v); continue; }
    if (const char* v = flag_value(arg, "--exact-tolerance")) {
      options.exact_tolerance = std::atof(v);
      continue;
    }
    if (std::strcmp(arg, "--warn-only") == 0) { warn_only = true; continue; }
    std::fprintf(stderr, "unknown flag %s (see header comment)\n", arg);
    return 2;
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "usage: perf_gate --baseline=PATH --current=PATH "
                         "[--tolerance=0.20] [--warn-only]\n");
    return 2;
  }

  auto current = load_bench_json(current_path);
  if (!current.is_ok()) {
    std::fprintf(stderr, "perf_gate: current run unreadable: %s\n",
                 current.status().to_string().c_str());
    return 2;
  }

  // Sanitizer-instrumented binaries run 2-20x slower than clean ones; their
  // timings say nothing about regressions. Skip rather than fail so the
  // sanitizer CI jobs can share scripts with perf-smoke without gating.
  const auto sanitized = current.value().meta.find("sanitized");
  if (sanitized != current.value().meta.end() && sanitized->second == "1") {
    std::fprintf(stdout, "perf_gate: current run was built with sanitizers; "
                         "timings are not comparable to clean baselines — skipping gate\n");
    return 0;
  }

  auto baseline = load_bench_json(baseline_path);
  if (!baseline.is_ok()) {
    // No baseline is not a regression: first run on a fresh machine or a new
    // benchmark. The caller records the produced document as the baseline.
    std::fprintf(stderr, "perf_gate: no usable baseline (%s); nothing to gate against\n",
                 baseline.status().to_string().c_str());
    return 0;
  }

  const GateResult result =
      gate_compare(baseline.value(), std::move(current).take(), options);
  std::fputs(result.summary().c_str(), stdout);
  if (!result.ok() && warn_only) {
    std::fprintf(stdout, "(--warn-only: reporting without failing the build)\n");
    return 0;
  }
  return result.ok() ? 0 : 1;
}
