// Reference-model fuzzing: drive a component with long random operation
// sequences and compare against an obviously-correct (slow) model after
// every step. These catch state-machine bugs that example-based tests miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/history_window.hpp"
#include "sim/event_queue.hpp"
#include "storage/bandwidth_ledger.hpp"
#include "storage/flow.hpp"
#include "util/rng.hpp"

namespace sqos {
namespace {

// ------------------------------------------------------------- FlowTable --

TEST(ReferenceModel, FlowTableMatchesMapModel) {
  storage::FlowTable table;
  std::map<std::uint64_t, double> model;  // id -> rate bps
  std::vector<storage::FlowId> live;
  Rng rng{2024};

  for (int step = 0; step < 20'000; ++step) {
    const bool add = live.empty() || rng.next_double() < 0.55;
    if (add) {
      const double rate = rng.uniform(0.0, 3e6);
      const storage::FlowId id = table.add(storage::FlowKind::kRead, rng.next_below(100),
                                           Bandwidth::bytes_per_sec(rate), SimTime::zero());
      model.emplace(storage::to_underlying(id), rate);
      live.push_back(id);
    } else {
      const std::size_t pick = rng.next_below(live.size());
      const storage::FlowId id = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(table.remove(id));
      model.erase(storage::to_underlying(id));
    }
    ASSERT_EQ(table.size(), model.size());
    double expected = 0.0;
    for (const auto& [_, r] : model) expected += r;
    // The table keeps a running total; allow accumulated float drift.
    ASSERT_NEAR(table.total_rate().bps(), expected, 1e-3 + expected * 1e-9) << "step " << step;
  }
}

// ------------------------------------------------------------ EventQueue --

/// One random operation mix for the queue-vs-multimap comparison.
struct QueueInput {
  const char* name;
  std::uint64_t rng_seed;
  int steps;
  /// Push times: uniform over [0, 1000) us when false. When true, each push
  /// lands at the last popped time plus a log-uniform offset of up to 2^40
  /// us, so entries reach every wheel level and the overflow heap; the mix
  /// adds same-instant pushes, pushes below the last popped time, cancels
  /// aimed at recent (mostly still bucketed) ids, a next_time() peek after
  /// every operation — the run_until pattern — and a full drain every 4,096
  /// steps, so far-future pushes also land in an idle queue.
  bool wheel = false;
  /// Also push event series (EventQueue::push_series) of 1-8 events whose
  /// nondecreasing times come from the same draw, with same-instant ties
  /// inside a series and with the ordinary pushes around it. The model holds
  /// every series event from the moment the series is pushed, as n eager
  /// pushes would; the queue must pop them in that order, with an equal
  /// size(), running each popped series event so it arms its successor.
  bool series = false;
};

/// A series over a fixed list of times; checks it fires in index order.
class ListSeries final : public sim::EventSeries {
 public:
  explicit ListSeries(std::vector<std::int64_t> times) : times_{std::move(times)} {}
  [[nodiscard]] SimTime time_of(std::size_t i) const override {
    return SimTime::micros(times_[i]);
  }
  void fire(std::size_t i) override { EXPECT_EQ(i, next_++); }

 private:
  std::vector<std::int64_t> times_;
  std::size_t next_ = 0;
};

void PrintTo(const QueueInput& input, std::ostream* os) { *os << input.name; }

class EventQueueReference : public ::testing::TestWithParam<QueueInput> {};

TEST_P(EventQueueReference, MatchesMultimapModel) {
  const QueueInput& input = GetParam();
  sim::EventQueue queue;
  // Reference: ordered by (time, seq); cancellation removes by the id the
  // queue issued. Ids of popped/cancelled events must go stale (the queue
  // recycles slots under a new generation). Series events carry id 0, which
  // the queue never issues.
  std::multimap<std::pair<std::int64_t, std::uint64_t>, std::uint64_t> model;
  std::map<std::uint64_t, std::multimap<std::pair<std::int64_t, std::uint64_t>,
                                        std::uint64_t>::iterator>
      by_id;
  std::vector<std::uint64_t> issued;  // every id ever returned, live or stale
  Rng rng{input.rng_seed};
  std::uint64_t seq = 0;  // mirrors the queue's internal push counter
  constexpr std::int64_t kSpanBits = 40;
  std::int64_t last_popped = 0;
  std::int64_t last_pushed = 0;

  const auto push_time = [&]() -> std::int64_t {
    if (!input.wheel) return static_cast<std::int64_t>(rng.next_below(1000));
    const double kind = rng.next_double();
    if (kind < 0.15) return last_pushed;  // same instant as the previous push
    if (kind < 0.25) {                    // below the last popped time
      return static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(last_popped) + 1));
    }
    const auto bits = static_cast<std::int64_t>(rng.next_below(kSpanBits + 1));
    const std::int64_t offset =
        bits == 0 ? 0 : static_cast<std::int64_t>(rng.next_below(std::uint64_t{1} << bits));
    return std::min(last_popped + offset, (std::int64_t{1} << kSpanBits) - 1);
  };
  const auto check_peek = [&] {
    const SimTime expected =
        model.empty() ? SimTime::max() : SimTime::micros(model.begin()->first.first);
    ASSERT_EQ(queue.next_time(), expected);
  };
  // A popped series event runs at once, as the simulator would run it: that
  // pushes its successor, which the model already holds.
  const auto run_if_series = [&](sim::Event& out, std::uint64_t model_id) {
    ASSERT_EQ(queue.size(), model.size());
    if (model_id == 0) out.fn();
  };
  // Pop everything left; the order must match the model to the last event.
  const auto drain = [&] {
    sim::Event out;
    while (queue.pop(out)) {
      ASSERT_FALSE(model.empty());
      ASSERT_EQ(out.time.as_micros(), model.begin()->first.first);
      ASSERT_EQ(out.seq, model.begin()->first.second);
      last_popped = out.time.as_micros();
      const std::uint64_t model_id = model.begin()->second;
      by_id.erase(model_id);
      model.erase(model.begin());
      run_if_series(out, model_id);
    }
    ASSERT_TRUE(model.empty());
    ASSERT_EQ(queue.size(), 0u);
  };

  for (int step = 0; step < input.steps; ++step) {
    const double op = rng.next_double();
    if (input.series && op < 0.05) {  // push a series
      std::vector<std::int64_t> times(1 + rng.next_below(8));
      for (std::int64_t& t : times) t = push_time();
      std::sort(times.begin(), times.end());
      for (std::size_t j = 1; j < times.size(); ++j) {
        if (rng.next_double() < 0.3) times[j] = times[j - 1];  // same-instant tie
      }
      for (std::size_t j = 0; j < times.size(); ++j) {
        model.emplace(std::make_pair(times[j], seq + j), 0);
      }
      seq += times.size();
      last_pushed = times.back();
      const std::size_t n = times.size();
      queue.push_series(n, std::make_unique<ListSeries>(std::move(times)));
    } else if (op < 0.5 || issued.empty()) {  // push
      const std::int64_t t = push_time();
      last_pushed = t;
      const sim::EventId id = queue.push(SimTime::micros(t), [] {});
      const std::uint64_t raw = sim::to_underlying(id);
      ASSERT_EQ(by_id.count(raw), 0u) << "queue reissued a live id";
      by_id.emplace(raw, model.emplace(std::make_pair(t, seq), raw));
      issued.push_back(raw);
      ++seq;
    } else if (op < 0.8) {  // pop
      sim::Event out;
      const bool got = queue.pop(out);
      ASSERT_EQ(got, !model.empty());
      if (got) {
        const auto expected = model.begin();
        ASSERT_EQ(out.time.as_micros(), expected->first.first) << "step " << step;
        ASSERT_EQ(out.seq, expected->first.second) << "step " << step;
        const std::uint64_t model_id = expected->second;
        if (model_id != 0) {
          ASSERT_EQ(sim::to_underlying(out.id), model_id);
        }
        last_popped = out.time.as_micros();
        by_id.erase(model_id);
        model.erase(expected);
        run_if_series(out, model_id);
      }
    } else {  // cancel a random previously issued (possibly stale) id
      const std::size_t recent = std::min<std::size_t>(issued.size(), 64);
      const std::uint64_t target =
          input.wheel && rng.next_double() < 0.5
              ? issued[issued.size() - 1 - rng.next_below(recent)]
              : issued[rng.next_below(issued.size())];
      const auto it = by_id.find(target);
      const bool cancelled = queue.cancel(sim::EventId{target});
      ASSERT_EQ(cancelled, it != by_id.end());
      if (it != by_id.end()) {
        model.erase(it->second);
        by_id.erase(it);
      }
    }
    ASSERT_EQ(queue.size(), model.size());
    if (input.wheel) check_peek();
    if (input.wheel && step % 4096 == 4095) drain();
  }
  drain();
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, EventQueueReference,
    ::testing::Values(QueueInput{"NarrowWindow", 7, 30'000, false},
                      QueueInput{"WheelLevels", 11, 60'000, true},
                      QueueInput{"Series", 13, 60'000, true, true}),
    [](const ::testing::TestParamInfo<QueueInput>& param) {
      return std::string{param.param.name};
    });

// -------------------------------------------------------- BandwidthLedger --

TEST(ReferenceModel, LedgerMatchesScalarIntegration) {
  const double cap = 1.8e6;
  storage::BandwidthLedger ledger{Bandwidth::bytes_per_sec(cap), SimTime::zero()};
  double assigned = 0.0;
  double over = 0.0;
  double current = 0.0;
  std::int64_t t_us = 0;
  Rng rng{99};

  for (int step = 0; step < 50'000; ++step) {
    const std::int64_t dt = static_cast<std::int64_t>(rng.next_below(5'000'000));
    t_us += dt;
    const double dt_s = static_cast<double>(dt) / 1e6;
    assigned += current * dt_s;
    over += std::max(0.0, current - cap) * dt_s;
    current = rng.uniform(0.0, 3e6);
    ledger.on_allocation_change(SimTime::micros(t_us), Bandwidth::bytes_per_sec(current));
  }
  ledger.advance_to(SimTime::micros(t_us + 1'000'000));
  assigned += current * 1.0;
  over += std::max(0.0, current - cap) * 1.0;

  EXPECT_NEAR(ledger.assigned_bytes(), assigned, assigned * 1e-9 + 1.0);
  EXPECT_NEAR(ledger.overallocated_bytes(), over, over * 1e-9 + 1.0);
}

// ------------------------------------------------------- TwoQueueHistory --

TEST(ReferenceModel, HistoryMatchesDequeModel) {
  core::HistoryParams params;
  params.sample_limit = 5;
  params.expiry = SimTime::seconds(30.0);
  core::TwoQueueHistory history{params};

  // Reference model of the recording window.
  struct Window {
    std::int64_t start_us = 0;
    std::int64_t bytes = 0;
    std::size_t samples = 0;
    bool open = false;
  };
  Window rec;
  Window ref;
  bool ref_valid = false;
  std::int64_t ref_end_us = 0;

  Rng rng{41};
  std::int64_t now_us = 0;
  const auto exchange = [&](std::int64_t at_us) {
    ref = rec;
    ref_valid = true;
    ref_end_us = at_us;
    rec = Window{};
    rec.start_us = at_us;
  };

  for (int step = 0; step < 20'000; ++step) {
    now_us += static_cast<std::int64_t>(rng.next_below(8'000'000));
    // Model: expiry check first, then record.
    if (rec.open && now_us - rec.start_us >= 30'000'000) exchange(now_us);
    const std::int64_t bytes = static_cast<std::int64_t>(rng.next_below(1'000'000));
    if (!rec.open) {
      rec.start_us = now_us;
      rec.open = true;
    }
    rec.bytes += bytes;
    ++rec.samples;
    if (rec.samples >= 5) exchange(now_us);

    history.record(SimTime::micros(now_us), Bytes::of(bytes));

    const core::WindowStats stats = history.reference(SimTime::micros(now_us));
    ASSERT_EQ(stats.valid, ref_valid) << "step " << step;
    if (ref_valid) {
      ASSERT_EQ(stats.fs_total.count(), ref.bytes);
      ASSERT_EQ(stats.samples, ref.samples);
      ASSERT_EQ(stats.t_start.as_micros(), ref.start_us);
      ASSERT_EQ(stats.t_end.as_micros(), ref_end_us);
    }
  }
}

}  // namespace
}  // namespace sqos
