// Deterministic parallel experiment runner.
//
// Every `run_experiment` call is an independent, seed-deterministic
// simulation, so a (config × seed) sweep is embarrassingly parallel — the
// only thing parallelism must never change is the *output*. This pool makes
// that contract structural: results are merged by submission index, never by
// completion order, so `run_averaged` and the bench sweep loops produce
// bit-identical tables and sqos-bench-v1 documents at any `jobs` value. The
// determinism golden test and the perf-gate exact-cell comparison are the
// correctness oracle for the parallelism.
//
// Design: a fixed-size worker pool (std::jthread, no third-party deps) fed
// by a bounded task queue. `jobs == 1` spawns no threads at all — submit()
// executes inline on the calling thread, byte-for-byte the legacy serial
// path — so the serial/parallel equivalence tests compare two genuinely
// different execution regimes.
//
// Thread-safety contract for submitted tasks: `run_experiment` builds a
// private Cluster per call and draws from a private seeded Rng, so tasks
// share no mutable state. The static half of that contract is enforced by
// the `no-mutable-static` sqos_lint rule over src/ (the only allowance is
// the atomic log level, which never feeds simulation state).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace sqos::exp {

/// Worker count used when the caller does not pin one: the hardware
/// concurrency, or 1 when the runtime cannot report it.
[[nodiscard]] std::size_t default_jobs();

class ParallelRunner {
 public:
  /// `jobs` fixes the pool width for the runner's lifetime; 0 means
  /// default_jobs(). With jobs == 1 no worker threads are created.
  explicit ParallelRunner(std::size_t jobs = default_jobs());
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Enqueue one task. Blocks while the bounded queue is full (backpressure
  /// instead of unbounded memory on huge sweeps). With jobs() == 1 the task
  /// runs to completion on the calling thread before submit() returns, and
  /// any exception propagates directly — exact serial semantics.
  void submit(std::function<void()> task);

  /// Block until every task submitted so far has finished. If any task
  /// threw, the exception of the *earliest-submitted* failing task is
  /// rethrown (later failures are dropped) and the pool stays usable —
  /// failure reporting is as deterministic as the merge.
  void wait_idle();

  /// Fan `count` independent evaluations of `fn(index)` out over the pool
  /// and return the results ordered by index. The merge is position-based:
  /// worker completion order cannot reorder, duplicate, or drop results, so
  /// the output is identical at every `jobs` value.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(std::size_t count, Fn fn) {
    std::vector<T> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      submit([&out, fn, i] { out[i] = fn(i); });
    }
    wait_idle();
    return out;
  }

 private:
  struct Impl;  // queue + worker state (mutex/cv/jthread) lives in the .cpp
  std::size_t jobs_ = 1;
  std::unique_ptr<Impl> impl_;  // null when jobs_ == 1 (inline execution)
};

}  // namespace sqos::exp
