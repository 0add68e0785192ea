// Shared plumbing for the per-table / per-figure reproduction binaries.
//
// Every binary accepts `key=value` overrides:
//   seeds=N     runs per configuration, averaged (default 3)
//   users=N     override the user count where applicable
//   jobs=N      worker threads for the (config × seed) fan-out (default:
//               hardware concurrency; jobs=1 = legacy serial). Outputs are
//               bit-identical at every jobs value — the parallel runner
//               merges in submission order.
//   csv=path    mirror the table/series to a CSV file
//   json=path   emit an sqos-bench-v1 document (one exact metric per table
//               cell plus per-cell wall time and sweep-level speedup
//               aggregates) for tools/perf_gate
//   quick=1     single seed, reduced sweep (smoke-test mode)
// plus any keys a binary declares to parse_args. Any other key is an error
// (exit 1): a mistyped key never silently runs the default.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/parallel_runner.hpp"
#include "util/bench_json.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace sqos::bench {

struct BenchArgs {
  Config cfg;
  std::size_t seeds = 3;
  std::size_t jobs = 1;
  bool quick = false;
  std::string csv_path;
  std::uint64_t base_seed = 1;
};

/// Process-wide JSON sink: every cell appends its metrics here, and an
/// atexit hook writes the document once the sweep finishes. Keeping the
/// sink out of BenchArgs means no table binary needs json-specific code.
struct JsonSink {
  std::string path;
  BenchReport report{""};
  std::size_t cells = 0;
  double cells_wall_ms = 0.0;  // sum of per-cell compute times (serial cost)
  std::chrono::steady_clock::time_point sweep_start;
};

inline JsonSink& json_sink() {
  static JsonSink sink;
  return sink;
}

inline void flush_json_sink() {
  JsonSink& sink = json_sink();
  if (sink.path.empty()) return;
  if (sink.cells > 0) {
    // Aggregate speedup evidence: cells_wall_ms is what the sweep would
    // have cost serially, wall_ms is what it actually took with `jobs`
    // workers. Both are goal=info — the perf gate never compares timings
    // across differently-parallel runs, only the exact cells.
    const double wall_ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                               std::chrono::steady_clock::now() - sink.sweep_start)
                               .count();
    sink.report.add("sweep.wall_ms", wall_ms, "ms", MetricGoal::kInfo);
    sink.report.add("sweep.cells_wall_ms", sink.cells_wall_ms, "ms", MetricGoal::kInfo);
    if (wall_ms > 0.0) {
      sink.report.add("sweep.parallel_speedup", sink.cells_wall_ms / wall_ms, "x",
                      MetricGoal::kInfo);
    }
  }
  const Status s = sink.report.write_file(sink.path);
  if (!s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return;
  }
  std::printf("wrote %s (%zu cells)\n", sink.path.c_str(), sink.cells);
}

/// Parse the shared keys above plus the binary's own `extra_keys`.
inline BenchArgs parse_args(int argc, char** argv,
                            std::vector<std::string_view> extra_keys = {}) {
  auto parsed = Config::from_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().to_string().c_str());
    std::exit(1);
  }
  BenchArgs args;
  args.cfg = std::move(parsed).take();
  extra_keys.insert(extra_keys.end(), {"seeds", "users", "jobs", "csv", "json", "quick", "seed"});
  if (const Status known = args.cfg.require_known(extra_keys); !known.is_ok()) {
    std::fprintf(stderr, "%s\n", known.to_string().c_str());
    std::exit(1);
  }
  args.quick = args.cfg.get_bool("quick", false);
  args.seeds = args.cfg.get_count("seeds", args.quick ? 1 : 3);
  args.csv_path = args.cfg.get_string("csv", "");
  args.base_seed = static_cast<std::uint64_t>(args.cfg.get_int("seed", 1));
  args.jobs = args.cfg.get_count("jobs", exp::default_jobs());
  if (args.jobs == 0) args.jobs = exp::default_jobs();

  const std::string json_path = args.cfg.get_string("json", "");
  if (!json_path.empty()) {
    std::string binary = argc > 0 ? argv[0] : "bench";
    if (const auto slash = binary.find_last_of('/'); slash != std::string::npos) {
      binary.erase(0, slash + 1);
    }
    JsonSink& sink = json_sink();
    sink.path = json_path;
    sink.report = BenchReport{std::move(binary)};
    sink.report.set_meta("seeds", std::to_string(args.seeds));
    sink.report.set_meta("seed", std::to_string(args.base_seed));
    sink.report.set_meta("jobs", std::to_string(args.jobs));
    sink.report.set_meta("mode", args.quick ? "quick" : "full");
    sink.sweep_start = std::chrono::steady_clock::now();
    std::atexit(flush_json_sink);
  }
  return args;
}

/// The four §VI.C replication strategies in paper order.
inline std::vector<core::ReplicationConfig> strategy_sweep() {
  return {core::ReplicationConfig::static_only(), core::ReplicationConfig::baseline(),
          core::ReplicationConfig::rep(1, 8), core::ReplicationConfig::rep(1, 3)};
}

/// Append one cell's metrics to the JSON sink. Cells are numbered in the
/// order this is called, so callers must invoke it in submission order.
inline void record_cell_json(const exp::ExperimentParams& params,
                             const exp::ExperimentResult& result, double wall_ms) {
  JsonSink& sink = json_sink();
  if (sink.path.empty()) return;
  // Simulation outputs are goal=exact: the run is deterministic for a
  // fixed seed set, so any drift is a determinism regression, not noise.
  const std::string cell = "cell" + std::to_string(sink.cells++) + ".";
  auto& r = sink.report;
  r.add(cell + "users", static_cast<double>(params.users), "", MetricGoal::kInfo);
  r.add(cell + "requests", static_cast<double>(result.requests), "", MetricGoal::kExact);
  r.add(cell + "completed", static_cast<double>(result.completed), "", MetricGoal::kExact);
  r.add(cell + "failed", static_cast<double>(result.failed), "", MetricGoal::kExact);
  r.add(cell + "fail_rate", result.fail_rate, "", MetricGoal::kExact);
  r.add(cell + "overallocate_ratio", result.overallocate_ratio, "", MetricGoal::kExact);
  r.add(cell + "control_messages", static_cast<double>(result.control_messages), "",
        MetricGoal::kExact);
  r.add(cell + "control_bytes", static_cast<double>(result.control_bytes), "bytes",
        MetricGoal::kExact);
  // Total simulator events: the work measure behind events/sec curves, and a
  // whole-run determinism fingerprint (any event added or dropped anywhere
  // in the run moves it). New in later documents — gate_compare reports
  // current-only metrics as advisory, so old baselines still gate cleanly.
  r.add(cell + "executed_events", static_cast<double>(result.executed_events), "",
        MetricGoal::kExact);
  r.add(cell + "wall_ms", wall_ms, "ms", MetricGoal::kInfo);
  // Observability counters ride along as goal=info: gate_compare treats new
  // and missing info metrics as informational, so adding them never breaks
  // cross-gates against older baselines. Per-RM entries are skipped to keep
  // the document size independent of the cluster size.
  for (const obs::MetricSample& m : result.obs_metrics) {
    if (m.name.rfind("rm.", 0) == 0) continue;
    r.add(cell + "obs." + m.name, m.value, "", MetricGoal::kInfo);
  }
  sink.cells_wall_ms += wall_ms;
}

/// Deferred grid execution, the one way a reproduction binary runs cells:
/// binaries submit every cell of the (config × seed) grid up front, fan the
/// independent cells out over a fixed-size worker pool, then render rows
/// from the stored results. submit() order defines the result order *and*
/// the JSON cell order, so a parallel sweep's document is byte-identical to
/// the serial one (only the goal=info wall-time metrics differ).
class CellSweep {
 public:
  explicit CellSweep(const BenchArgs& args) : args_{args} {}

  /// Queue one cell; returns its handle, the submission index (0, 1, 2, ...),
  /// so a caller may also walk the results with a counter.
  std::size_t submit(exp::ExperimentParams params) {
    params.seed = args_.base_seed;
    cells_.push_back(Cell{std::move(params), exp::ExperimentResult{}, 0.0});
    return cells_.size() - 1;
  }

  /// Execute every queued cell `jobs`-wide. Each cell's seeds run serially
  /// inside its worker (the grid supplies the parallelism), its wall time
  /// is measured on the worker, and the JSON cells are appended strictly in
  /// submission order after the pool drains.
  void run() {
    exp::ParallelRunner pool{args_.jobs};
    for (Cell& cell : cells_) {
      pool.submit([this, &cell] {
        const auto t0 = std::chrono::steady_clock::now();
        cell.result = exp::run_averaged(cell.params, args_.seeds, 1);
        const auto t1 = std::chrono::steady_clock::now();
        cell.wall_ms =
            std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
                .count();
      });
    }
    pool.wait_idle();
    for (const Cell& cell : cells_) record_cell_json(cell.params, cell.result, cell.wall_ms);
  }

  /// Result of the cell `submit()` returned `id` for (valid after run()).
  [[nodiscard]] const exp::ExperimentResult& result(std::size_t id) const {
    return at(id).result;
  }

  /// Wall-clock compute time of one cell as measured on its worker (valid
  /// after run()) — the denominator for events/sec reporting.
  [[nodiscard]] double wall_ms(std::size_t id) const { return at(id).wall_ms; }

 private:
  struct Cell {
    exp::ExperimentParams params;
    exp::ExperimentResult result;
    double wall_ms = 0.0;
  };

  [[nodiscard]] const Cell& at(std::size_t id) const {
    if (id >= cells_.size()) {
      std::fprintf(stderr, "CellSweep: bad cell handle %zu\n", id);
      std::exit(1);
    }
    return cells_[id];
  }

  BenchArgs args_;
  std::vector<Cell> cells_;
};

inline CsvWriter open_csv(const BenchArgs& args, const std::vector<std::string>& header) {
  auto w = CsvWriter::open(args.csv_path, header);
  if (!w.is_ok()) {
    std::fprintf(stderr, "%s\n", w.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(w).take();
}

/// Header note shared by all binaries: absolute numbers are simulator-scale;
/// the paper's published value is printed alongside where available.
inline void print_preamble(const char* experiment, const char* metric, const BenchArgs& args) {
  std::printf("== storageqos reproduction: %s ==\n", experiment);
  std::printf("metric: %s | seeds averaged: %zu | jobs: %zu%s\n\n", metric, args.seeds,
              args.jobs, args.quick ? " (quick mode)" : "");
}

/// One point on a grid-table axis: its table label, its CSV label, the edit
/// it makes to a cell's parameters, and its row or column in the paper's
/// table (GridTable::paper).
struct GridPoint {
  std::string label;
  std::string csv;
  std::function<void(exp::ExperimentParams&)> apply;
  std::size_t paper;
};

/// A grid-table axis: the heading over its labels (printed for the row
/// axis), its CSV column name and its points.
struct GridAxis {
  std::string heading;
  std::string csv;
  std::vector<GridPoint> points;
};

/// A paper table as data: rows × columns of cells, each printed as
/// "measured [paper]". The metric follows the mode: the fail rate in firm
/// real time, the over-allocate ratio in soft real time.
struct GridTable {
  const char* experiment;  // preamble title
  const char* metric;      // preamble metric line
  const char* title;       // table title
  core::AllocationMode mode;
  GridAxis rows;
  GridAxis cols;
  std::vector<std::vector<double>> paper;  // percent, [row.paper][col.paper]
  int decimals;                            // of the measured and the paper value
  const char* epilogue = "";               // printed after the table
};

/// Run a GridTable: preamble, one CellSweep over every cell in row-major
/// order, the rendered table, the CSV (row label, column label, value) and
/// the epilogue. A cell has `users=` users (default 256, 128 in quick mode)
/// unless an axis sets the count.
inline void run_grid_table(const BenchArgs& args, const GridTable& t) {
  print_preamble(t.experiment, t.metric, args);
  const bool firm = t.mode == core::AllocationMode::kFirm;
  std::vector<std::string> header{t.rows.heading};
  for (const GridPoint& col : t.cols.points) header.push_back(col.label);
  AsciiTable table{t.title};
  table.set_header(header);
  CsvWriter csv =
      open_csv(args, {t.rows.csv, t.cols.csv, firm ? "fail_rate" : "overallocate_ratio"});

  const std::size_t users = args.cfg.get_count("users", args.quick ? 128 : 256);
  CellSweep sweep{args};
  for (const GridPoint& row : t.rows.points) {
    for (const GridPoint& col : t.cols.points) {
      exp::ExperimentParams params;
      params.users = users;
      params.mode = t.mode;
      row.apply(params);
      col.apply(params);
      sweep.submit(params);
    }
  }
  sweep.run();

  std::size_t cell = 0;
  for (const GridPoint& row : t.rows.points) {
    std::vector<std::string> line{row.label};
    for (const GridPoint& col : t.cols.points) {
      const exp::ExperimentResult& r = sweep.result(cell++);
      const double value = firm ? r.fail_rate : r.overallocate_ratio;
      line.push_back(format_percent(value, t.decimals) + " [" +
                     format_double(t.paper[row.paper][col.paper], t.decimals) + "%]");
      csv.row({row.csv, col.csv, format_double(value, 6)});
    }
    table.add_row(std::move(line));
  }
  table.print();
  std::fputs(t.epilogue, stdout);
}

/// Selection policies as an axis; a point is labelled by its weights, such as
/// "(1,0,0)", in the table and the CSV alike.
inline GridAxis policy_axis(const std::vector<core::PolicyWeights>& policies) {
  GridAxis axis{"(a,b,g)", "policy", {}};
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const core::PolicyWeights policy = policies[i];
    axis.points.push_back({policy.to_string(), policy.to_string(),
                           [policy](exp::ExperimentParams& p) { p.policy = policy; }, i});
  }
  return axis;
}

/// The user counts of Tables I and III: 64, 128, 192 and 256 (64 and 256 in
/// quick mode), or only `users=`. A count the paper did not run takes its
/// 256-user column.
inline GridAxis user_axis(const BenchArgs& args) {
  std::vector<std::size_t> users{64, 128, 192, 256};
  if (args.cfg.contains("users")) {
    users = {args.cfg.get_count("users", 256)};
  } else if (args.quick) {
    users = {64, 256};
  }
  GridAxis axis{"users", "users", {}};
  for (const std::size_t u : users) {
    const std::size_t column = u == 64 ? 0 : u == 128 ? 1 : u == 192 ? 2 : 3;
    axis.points.push_back({std::to_string(u) + " users", std::to_string(u),
                           [u](exp::ExperimentParams& p) { p.users = u; }, column});
  }
  return axis;
}

/// The four §VI.C replication strategies in paper order (Tables IV and V).
inline GridAxis strategy_axis() {
  const char* names[] = {"Static replication", "Baseline", "Rep(1, 8)", "Rep(1, 3)"};
  const std::vector<core::ReplicationConfig> strategies = strategy_sweep();
  GridAxis axis{"strategy", "strategy", {}};
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const core::ReplicationConfig rep = strategies[i];
    axis.points.push_back({names[i], rep.strategy_name(),
                           [rep](exp::ExperimentParams& p) { p.replication = rep; }, i});
  }
  return axis;
}

/// Rep(1,3)'s three destination strategies (Tables VI and VII).
inline GridAxis destination_axis() {
  const core::DestinationStrategy strategies[] = {core::DestinationStrategy::kRandom,
                                                  core::DestinationStrategy::kLargestBandwidthFirst,
                                                  core::DestinationStrategy::kWeighted};
  const char* names[] = {"Random", "LBW designated", "Weighted"};
  GridAxis axis{"destination", "destination", {}};
  for (std::size_t i = 0; i < std::size(strategies); ++i) {
    const core::DestinationStrategy destination = strategies[i];
    axis.points.push_back({names[i], std::string{to_string(destination)},
                           [destination](exp::ExperimentParams& p) {
                             p.replication = core::ReplicationConfig::rep(1, 3);
                             p.replication.destination = destination;
                           },
                           i});
  }
  return axis;
}

}  // namespace sqos::bench
