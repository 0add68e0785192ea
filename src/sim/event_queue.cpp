#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <utility>

namespace sqos::sim {

std::uint32_t EventQueue::Bitmap::next_from(std::uint32_t from) const {
  if (from >= kBuckets) return kBuckets;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = words[word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) return (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
    if (++word == words.size()) return kBuckets;
    bits = words[word];
  }
}

EventQueue::EventQueue() {
  for (auto& level : heads_) level.fill(kNil);
}

EventId EventQueue::push(SimTime t, EventFn fn) { return insert(t, next_seq_++, std::move(fn)); }

void EventQueue::push_series(std::size_t n, std::unique_ptr<EventSeries> series) {
  if (n == 0) return;
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  reserved_ += n;
  arm(std::move(series), first, 0, n);
}

void EventQueue::arm(std::unique_ptr<EventSeries> series, std::uint64_t seq, std::size_t i,
                     std::size_t n) {
  const SimTime t = series->time_of(i);
  --reserved_;
  // Event i outranks the series' later events — no earlier time, smaller
  // seq — so holding only it leaves the queue's minimum unchanged.
  auto run = [this, series = std::move(series), seq, i, n]() mutable {
    EventSeries& s = *series;
    if (i + 1 < n) {
      assert(s.time_of(i + 1) >= s.time_of(i) && "series times must be nondecreasing");
      arm(std::move(series), seq + 1, i + 1, n);
    }
    s.fire(i);
  };
  static_assert(InlineFn::fits_inline<decltype(run)>(), "arming a series must not allocate");
  insert(t, seq, std::move(run));
}

EventId EventQueue::insert(SimTime t, std::uint64_t seq, EventFn&& fn) {
  std::uint32_t index = 0;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if ((slot_count_ >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1} << kChunkBits));
    }
    index = slot_count_++;
  }
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.time = t;
  s.seq = seq;
  s.live = true;

  const Entry entry{t, s.seq, index, s.gen};
  const std::uint64_t tick = tick_of(t);
  if (live_ == 0 && tick > cursor_ && tick - cursor_ < kBuckets && wheel_empty()) {
    // A queue that drains to empty re-anchors at its next near event, so
    // it does not pay a bucket round trip per event while nearly idle.
    cursor_ = tick;
  }
  if (tick <= cursor_) {
    active_.push_back(entry);
    std::push_heap(active_.begin(), active_.end(), std::greater<>{});
  } else {
    // An idle active heap means next_time() answers from far_min_.
    if (active_.empty() && (live_ == 0 || far_min_ > entry)) far_min_ = entry;
    file(index, tick);
  }
  ++live_;
  return encode(index, entry.gen);
}

bool EventQueue::wheel_empty() const {
  for (const Bitmap& level : occupied_) {
    for (const std::uint64_t word : level.words) {
      if (word != 0) return false;
    }
  }
  return true;
}

EventQueue::Position EventQueue::position_of(std::uint64_t tick) const {
  // The highest tick bit that differs from the cursor picks the level: a
  // bucket at level L spans 2^(8L) ticks, all sharing the cursor's higher
  // bits, so entries never alias across laps of the wheel.
  const auto width = static_cast<unsigned>(std::bit_width(tick ^ cursor_));
  const unsigned level = width == 0 ? 0 : std::min((width - 1) / kLevelBits, kLevels);
  if (level == kLevels) return Position{kLevels, 0};
  return Position{level,
                  static_cast<std::uint32_t>(tick >> (level * kLevelBits)) & (kBuckets - 1)};
}

void EventQueue::file(std::uint32_t index, std::uint64_t tick) {
  const Position p = position_of(tick);
  Slot& s = slot(index);
  if (p.level == kLevels) {
    s.linked = false;
    overflow_.push_back(Entry{s.time, s.seq, index, s.gen});
    std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
    return;
  }
  s.next = heads_[p.level][p.bucket];
  s.linked = true;
  heads_[p.level][p.bucket] = index;
  occupied_[p.level].set(p.bucket);
}

bool EventQueue::next_wheel_tick() {
  unsigned level = 0;
  while (level < kLevels) {
    const unsigned shift = level * kLevelBits;
    // Above level 0 the cursor's own bucket is always empty (ticks in the
    // cursor's range at that level are filed lower down), so the scan
    // starts one past it.
    const auto own = static_cast<std::uint32_t>(cursor_ >> shift) & (kBuckets - 1);
    const std::uint32_t b = occupied_[level].next_from(level == 0 ? own : own + 1);
    if (b == kBuckets) {
      ++level;
      continue;
    }
    const std::uint64_t span = (std::uint64_t{1} << (shift + kLevelBits)) - 1;
    cursor_ = (cursor_ & ~span) | (std::uint64_t{b} << shift);
    if (level == 0) return true;
    drain_bucket(level, b);  // cascade one level down, then rescan
    level = 0;
  }
  return false;
}

void EventQueue::drain_bucket(unsigned level, std::uint32_t b) {
  std::uint32_t index = heads_[level][b];
  heads_[level][b] = kNil;
  occupied_[level].clear(b);
  while (index != kNil) {
    Slot& s = slot(index);
    const std::uint32_t next = s.next;
    if (!s.live) {
      s.linked = false;  // cancelled while linked: free the slot now
      free_slots_.push_back(index);
    } else if (level > 0) {
      file(index, tick_of(s.time));
    } else {
      s.linked = false;
      active_.push_back(Entry{s.time, s.seq, index, s.gen});
    }
    index = next;
  }
  if (level == 0) std::make_heap(active_.begin(), active_.end(), std::greater<>{});
}

bool EventQueue::refill_from_overflow() {
  constexpr unsigned kEpochBits = kLevelBits * kLevels;
  bool filed = false;
  std::uint64_t epoch = 0;
  while (!overflow_.empty()) {
    const Entry top = overflow_.front();
    const std::uint64_t tick = tick_of(top.time);
    if (filed && (tick >> kEpochBits) != epoch) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
    overflow_.pop_back();
    if (!is_live(top)) continue;  // cancelled; its slot is already free
    if (!filed) {
      epoch = tick >> kEpochBits;
      cursor_ = epoch << kEpochBits;
      filed = true;
    }
    file(top.slot, tick);
  }
  return filed;
}

void EventQueue::advance() {
  assert(active_.empty() && live_ > 0);
  while (active_.empty()) {
    if (next_wheel_tick()) {
      drain_bucket(0, static_cast<std::uint32_t>(cursor_) & (kBuckets - 1));
    } else if (!refill_from_overflow()) {
      assert(false && "live events must sit in the wheel or the overflow heap");
      return;
    }
  }
}

void EventQueue::settle() {
  while (!active_.empty() && !is_live(active_.front())) {
    std::pop_heap(active_.begin(), active_.end(), std::greater<>{});
    active_.pop_back();
  }
  if (active_.empty() && live_ > 0) advance();
}

void EventQueue::retire(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn.reset();
  s.live = false;
  ++s.gen;  // orphans every outstanding id and heap record for this slot
  if (s.gen == 0) ++s.gen;  // generation 0 is reserved for "never issued"
  if (!s.linked) free_slots_.push_back(index);
}

bool EventQueue::pop(Event& out) {
  if (active_.empty()) {
    if (live_ == 0) return false;
    advance();  // everything pending was pushed into an idle queue
  }
  const Entry top = active_.front();
  std::pop_heap(active_.begin(), active_.end(), std::greater<>{});
  active_.pop_back();
  Slot& s = slot(top.slot);
  assert(s.live && s.gen == top.gen && "active front must be live");
  out.time = top.time;
  out.seq = top.seq;
  out.id = encode(top.slot, top.gen);
  out.fn = std::move(s.fn);
  retire(top.slot);
  --live_;
  settle();
  return true;
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t raw = to_underlying(id);
  const auto index = static_cast<std::uint32_t>(raw & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(raw >> 32);
  if (index >= slot_count_) return false;
  Slot& s = slot(index);
  if (!s.live || s.gen != gen) return false;
  if (s.linked) {
    // Buckets are singly linked, so only a head unlinks in O(1) — the usual
    // case for a timeout cancelled soon after it was armed.
    const Position p = position_of(tick_of(s.time));
    std::uint32_t& head = heads_[p.level][p.bucket];
    if (head == index) {
      head = s.next;
      if (head == kNil) occupied_[p.level].clear(p.bucket);
      s.linked = false;
    }
  }
  const bool idle = active_.empty();
  const bool was_far_min = idle && far_min_.slot == index && far_min_.gen == gen;
  retire(index);
  --live_;
  if (!idle) {
    settle();
  } else if (was_far_min && live_ > 0) {
    advance();  // far_min_ is gone; materialize the next earliest tick
  }
  return true;
}

}  // namespace sqos::sim
