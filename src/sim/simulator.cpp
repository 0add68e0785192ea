#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace sqos::sim {

EventId Simulator::schedule_at(SimTime t, EventFn fn) {
  assert(t >= now_ && "cannot schedule into the past");
  assert(fn && "scheduled callback must be callable");
  return queue_.push(t, std::move(fn));
}

EventId Simulator::schedule_after(SimTime delay, EventFn fn) {
  assert(!delay.is_negative());
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

bool Simulator::step() {
  Event e;
  if (!queue_.pop(e)) return false;
  assert(e.time >= now_);
  now_ = e.time;
  ++executed_;
  e.fn();
  if (post_event_) post_event_();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  assert(deadline >= now_);
  stopped_ = false;
  while (!stopped_ && queue_.next_time() <= deadline) {
    if (!step()) break;
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace sqos::sim
