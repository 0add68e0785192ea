// Event records for the discrete-event kernel.
#pragma once

#include <cstdint>

#include "sim/inline_fn.hpp"
#include "util/sim_time.hpp"

namespace sqos::sim {

/// Opaque handle used to cancel a scheduled event. Value 0 is never issued.
/// Internally encodes (generation << 32 | slot) into the queue's slot table;
/// generations start at 1, so a live id can never be zero.
enum class EventId : std::uint64_t {};

[[nodiscard]] constexpr std::uint64_t to_underlying(EventId id) {
  return static_cast<std::uint64_t>(id);
}

/// The callback type executed when an event fires. Small captures (up to
/// InlineFn::kInlineSize bytes) live inside the pool-recycled event slot and
/// cost no allocation; larger ones take one.
using EventFn = InlineFn;

/// A popped event, ready to execute. Ordering inside the queue is
/// (time, sequence): two events at the same instant fire in scheduling
/// order, which keeps runs deterministic.
struct Event {
  SimTime time;
  std::uint64_t seq = 0;
  EventId id{};
  EventFn fn;
};

}  // namespace sqos::sim
