// The discrete-event simulator driving every experiment.
//
// Single-threaded by design: the paper's metrics are integrals of bandwidth
// allocations over time, which a deterministic event order reproduces
// bit-for-bit across runs. (Parallel speed-up comes from running independent
// experiment configurations as separate processes, not from threading the
// kernel.)
//
// Pending events live in one EventQueue — a hierarchical timing wheel whose
// pop order is exactly (time, seq), so two events at the same instant fire
// in scheduling order (DESIGN.md §9).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "util/sim_time.hpp"

namespace sqos::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must not be in the past).
  EventId schedule_at(SimTime t, EventFn fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(SimTime delay, EventFn fn);

  /// Schedule n events at nondecreasing times time_of(0) <= ... <=
  /// time_of(n - 1), the first no earlier than now(); event i calls fire(i).
  /// The run is exactly that of n schedule_at calls made now — same
  /// (time, seq) order, executed_events() and pending_events() — but only
  /// the series' next event is held in the queue (EventQueue::push_series),
  /// so a pre-planned series costs the memory of one event. Both callables
  /// are kept until the last event has run. Series events cannot be
  /// cancelled.
  template <typename TimeOf, typename Fire>
  void schedule_series(std::size_t n, TimeOf time_of, Fire fire);

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Run until the queue drains or `stop()` is called.
  void run();

  /// Run events with time <= `deadline`; afterwards now() == deadline (or the
  /// stop time, if stopped earlier).
  void run_until(SimTime deadline);

  /// Execute exactly one event if available; returns false when the queue is
  /// empty.
  bool step();

  /// Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Earliest pending live event time; SimTime::max() when the queue is
  /// empty. Never earlier than now() — the audit hook checks exactly that.
  /// O(1) and const.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Observation hook run after every executed event (same simulated time as
  /// the event, with its effects applied). One hook at a time; pass {} to
  /// clear. Installed by the invariant auditor — the hook must not schedule
  /// or cancel events, only observe. InlineFn rather than std::function: the
  /// hook check sits on the per-event hot path.
  using PostEventHook = InlineFn;
  void set_post_event_hook(PostEventHook hook) { post_event_ = std::move(hook); }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  PostEventHook post_event_;
};

template <typename TimeOf, typename Fire>
void Simulator::schedule_series(std::size_t n, TimeOf time_of, Fire fire) {
  class Series final : public EventSeries {
   public:
    Series(TimeOf t, Fire f) : time_of_{std::move(t)}, fire_{std::move(f)} {}
    [[nodiscard]] SimTime time_of(std::size_t i) const override { return time_of_(i); }
    void fire(std::size_t i) override { fire_(i); }

   private:
    TimeOf time_of_;
    Fire fire_;
  };
  if (n == 0) return;
  assert(time_of(0) >= now_ && "cannot schedule into the past");
  queue_.push_series(n, std::make_unique<Series>(std::move(time_of), std::move(fire)));
}

/// The times of a periodic series: event i at first + i * period.
struct Periodic {
  SimTime first;
  SimTime period;

  [[nodiscard]] SimTime operator()(std::size_t i) const {
    return first + period * static_cast<std::int64_t>(i);
  }

  /// How many events fall at or before `until`.
  [[nodiscard]] std::size_t count_through(SimTime until) const {
    assert(period > SimTime::zero());
    if (first > until) return 0;
    return static_cast<std::size_t>((until - first).as_micros() / period.as_micros()) + 1;
  }
};

}  // namespace sqos::sim
