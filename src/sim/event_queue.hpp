// Pending-event queue: a hierarchical timing wheel with an exact (time, seq)
// pop order and generation-stamped O(1) cancellation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.hpp"

namespace sqos::sim {

/// The times and the work of a pre-planned event series (push_series).
class EventSeries {
 public:
  EventSeries() = default;
  EventSeries(const EventSeries&) = delete;
  EventSeries& operator=(const EventSeries&) = delete;
  virtual ~EventSeries() = default;
  /// Time of event i; nondecreasing in i.
  [[nodiscard]] virtual SimTime time_of(std::size_t i) const = 0;
  /// Run event i.
  virtual void fire(std::size_t i) = 0;
};

/// Every pending event sits in exactly one of three tiers:
///   * the active heap — a small binary min-heap on (time, seq) holding the
///     events due at or before the cursor's tick, including pushes below
///     the last popped time;
///   * the wheel — kLevels levels of kBuckets buckets over 2^kTickBits us
///     ticks, later than the cursor's tick and inside its epoch (2^24 ticks
///     = 2^38 us, about 76.4 simulated hours). Level 0 buckets hold single
///     ticks, level 1 buckets 256 ticks, level 2 buckets 65,536 ticks. A
///     bucket is an unordered singly linked list threaded through the slot
///     array, so the wheel allocates nothing; a bitmap per level marks the
///     occupied buckets;
///   * the overflow heap — an exact (time, seq) heap for events in a later
///     epoch than the cursor's.
/// When the active heap runs dry, the cursor moves to the next occupied
/// tick, cascading a higher-level bucket down whenever it enters that
/// bucket's range, and the tick's bucket is heapified into the active heap.
/// Everything in the wheel and the overflow heap is due strictly after
/// everything in the active heap, so the active front is the global
/// (time, seq) minimum and the pop order equals a single binary heap's.
///
/// Slots (and the inline storage of their InlineFn callbacks) live in
/// fixed-size chunks that are never reallocated, and are recycled through a
/// free list. (A single doubling vector would copy every pending event on
/// growth and hand a buffer of tens of MB back to malloc, which raises
/// glibc's mmap threshold and leaves later allocations fragmenting the
/// heap.) Cancellation bumps the slot's generation, orphaning
/// the id and any heap record, and destroys the callback at once. A slot at
/// the head of its bucket is unlinked and freed at once; one deeper in a
/// bucket returns to the free list when the cursor walks that bucket.
///
/// A series (push_series) reserves a block of sequence numbers but holds
/// only its next event; size() counts the reserved remainder as pending.
class EventQueue {
 public:
  /// One wheel tick: 2^14 us = 16.384 ms.
  static constexpr unsigned kTickBits = 14;
  static constexpr unsigned kLevelBits = 8;
  static constexpr std::uint32_t kBuckets = 1u << kLevelBits;
  static constexpr unsigned kLevels = 3;
  /// Span of one wheel epoch. Events pushed from a cursor at 0 up to this
  /// far ahead land in buckets, not in the overflow heap.
  static constexpr SimTime kHorizon =
      SimTime::micros(std::int64_t{1} << (kTickBits + kLevelBits * kLevels));
  static_assert(kHorizon >= SimTime::micros(std::int64_t{48} * 3600 * 1'000'000),
                "the wheel must hold two simulated days of pre-scheduled arrivals");

  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at time `t`; returns the handle used for cancel().
  EventId push(SimTime t, EventFn fn);

  /// Schedule events 0..n-1 of `series` at its nondecreasing times, popping
  /// in exactly the (time, seq) order of n push() calls made now: the series
  /// takes the next n sequence numbers, but only event i is held in the
  /// queue until it runs, and running it pushes event i + 1 under its
  /// reserved number before calling fire(i). A popped series event must be
  /// run. Series events cannot be cancelled.
  void push_series(std::size_t n, std::unique_ptr<EventSeries> series);

  /// Pop the earliest non-cancelled event; returns false when empty.
  [[nodiscard]] bool pop(Event& out);

  /// Mark an event cancelled; returns false if the id is not pending.
  bool cancel(EventId id);

  /// Earliest pending (non-cancelled) time; SimTime::max() when empty. O(1).
  [[nodiscard]] SimTime next_time() const {
    if (!active_.empty()) return active_.front().time;
    return live_ == 0 ? SimTime::max() : far_min_.time;
  }

  /// Alias of next_time() kept for observers (invariant audits). O(1), const.
  [[nodiscard]] SimTime peek_next_time() const { return next_time(); }

  /// Pending events, counting the events of a series not yet pushed.
  [[nodiscard]] std::size_t size() const { return live_ + reserved_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  /// Heap record for the active and overflow heaps.
  struct Entry {
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;

    [[nodiscard]] friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    EventFn fn;
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    std::uint32_t next = kNil;  // next slot in the same wheel bucket
    bool live = false;
    bool linked = false;  // threaded into a wheel bucket
  };

  /// Occupancy of one level's buckets.
  struct Bitmap {
    std::array<std::uint64_t, kBuckets / 64> words{};

    void set(std::uint32_t i) { words[i >> 6] |= std::uint64_t{1} << (i & 63); }
    void clear(std::uint32_t i) { words[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
    /// Smallest set index >= from, or kBuckets when there is none.
    [[nodiscard]] std::uint32_t next_from(std::uint32_t from) const;
  };

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) | slot};
  }

  /// Wheel tick of `t`; times before zero share tick 0.
  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    return t.is_negative() ? 0 : static_cast<std::uint64_t>(t.as_micros()) >> kTickBits;
  }

  static constexpr unsigned kChunkBits = 12;  // 4,096 slots per chunk

  /// push() with a given sequence number. Takes `fn` by reference so push()
  /// relocates the callback once, into its slot.
  EventId insert(SimTime t, std::uint64_t seq, EventFn&& fn);

  /// Push event i of a series (n events, event i numbered `seq`).
  void arm(std::unique_ptr<EventSeries> series, std::uint64_t seq, std::size_t i, std::size_t n);

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & ((1u << kChunkBits) - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return chunks_[index >> kChunkBits][index & ((1u << kChunkBits) - 1)];
  }

  [[nodiscard]] bool is_live(const Entry& e) const {
    const Slot& s = slot(e.slot);
    return s.live && s.gen == e.gen;
  }

  /// Where a tick at or after the cursor's files: a wheel level and bucket,
  /// or level kLevels for the overflow heap. A bucketed event's position
  /// stays this function of its tick and the current cursor, because the
  /// cursor only enters a bucket's range by cascading that bucket.
  struct Position {
    unsigned level;
    std::uint32_t bucket;
  };
  [[nodiscard]] Position position_of(std::uint64_t tick) const;

  /// No bucket holds a slot, live or cancelled.
  [[nodiscard]] bool wheel_empty() const;

  /// Put a wheel-bound slot into its bucket (tick >= cursor_ within the
  /// cursor's epoch) or into the overflow heap (a later epoch).
  void file(std::uint32_t index, std::uint64_t tick);

  /// Move the cursor to the next occupied wheel tick, cascading higher
  /// buckets down on the way; false when the wheel is empty.
  bool next_wheel_tick();

  /// Re-file every entry of bucket `b` at `level` relative to the cursor
  /// (level > 0), or heapify it into the active heap (level 0).
  void drain_bucket(unsigned level, std::uint32_t b);

  /// With the wheel empty, move the cursor to the earliest overflow epoch
  /// and file that epoch's events; false when nothing live remains.
  bool refill_from_overflow();

  /// Refill the empty active heap from the wheel. Requires live_ > 0.
  void advance();

  /// Drop orphaned records off the active top; advance when it empties.
  void settle();

  /// Destroy a slot's callback and orphan its id and records. Unlinked
  /// slots go straight back to the free list; linked ones when their bucket
  /// is next walked.
  void retire(std::uint32_t index);

  std::vector<Entry> active_;
  std::vector<Entry> overflow_;
  std::array<std::array<std::uint32_t, kBuckets>, kLevels> heads_{};
  std::array<Bitmap, kLevels> occupied_{};
  /// Tick of the active window; moves forward only inside advance().
  std::uint64_t cursor_ = 0;
  /// Earliest wheel/overflow event, maintained only while the active heap
  /// is empty (pushes into an idle queue) so next_time() stays O(1).
  Entry far_min_{};
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots ever handed out
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  /// Series events whose sequence number is taken but which are not pushed.
  std::size_t reserved_ = 0;
};

}  // namespace sqos::sim
