// Deterministic token bucket on simulated time.
//
// Tokens are integer bytes; refill is integer arithmetic over SimTime
// microsecond deltas with an explicit remainder carry, so the bucket state
// after any event sequence is a pure function of that sequence — no wall
// clock, no floating-point drift, bit-identical across repeats and jobs=
// values. Overflowing refills saturate to the burst capacity instead of
// wrapping (a tenant idle for hours must not wrap into a negative balance).
#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace sqos::qos {

/// Rate sentinel for "effectively uncapped" (~4.4 TB/s): the controller's
/// starting point before it has any congestion signal to act on. Large
/// enough that no simulated transfer is ever throttled, small enough that
/// rate * burst_window arithmetic stays far from int64 saturation.
inline constexpr std::int64_t kUncappedRate = std::int64_t{1} << 42;

class TokenBucket {
 public:
  TokenBucket() = default;

  /// A bucket starts full: `burst` tokens available at `now`.
  TokenBucket(std::int64_t rate_bytes_per_sec, std::int64_t burst_bytes, SimTime now)
      : rate_{rate_bytes_per_sec}, burst_{burst_bytes}, tokens_{burst_bytes}, last_{now} {}

  [[nodiscard]] std::int64_t rate() const { return rate_; }
  [[nodiscard]] std::int64_t burst() const { return burst_; }

  /// Accrue tokens for the sim-time elapsed since the last refill:
  /// tokens += rate * dt, computed as (rate * dt_us + carry) / 1e6 with the
  /// sub-byte remainder carried forward, so N small steps and one big step
  /// accrue the identical token count. Saturates at the burst capacity.
  void refill(SimTime now) {
    const std::int64_t dt_us = (now - last_).as_micros();
    last_ = now;
    if (dt_us <= 0 || rate_ <= 0) return;
    constexpr std::int64_t kUsPerSec = 1'000'000;
    constexpr std::int64_t kMax = INT64_MAX;
    // Saturating multiply: a long-idle bucket (or an uncapped rate) would
    // overflow rate * dt_us; any product past kMax already fills the bucket,
    // so clamp to full instead of wrapping.
    if (dt_us > (kMax - carry_us_) / rate_) {
      tokens_ = burst_;
      carry_us_ = 0;
      return;
    }
    const std::int64_t accrued_us = rate_ * dt_us + carry_us_;
    const std::int64_t whole = accrued_us / kUsPerSec;
    carry_us_ = accrued_us % kUsPerSec;
    tokens_ = (whole > burst_ - tokens_) ? burst_ : tokens_ + whole;
    if (tokens_ >= burst_) carry_us_ = 0;  // a full bucket holds no remainder
  }

  /// Refill to `now`, then consume `bytes` if the balance covers them.
  /// Same-instant calls share one refill, so a burst of requests at one
  /// simulated instant drains exactly the tokens available at that instant.
  [[nodiscard]] bool try_consume(std::int64_t bytes, SimTime now) {
    refill(now);
    if (bytes > tokens_) return false;
    tokens_ -= bytes;
    return true;
  }

  /// Return tokens taken by an admission that was subsequently refused
  /// downstream (never above the burst capacity).
  void refund(std::int64_t bytes) {
    tokens_ = (bytes > burst_ - tokens_) ? burst_ : tokens_ + bytes;
  }

  /// Controller rate update: accrue at the old rate up to `now`, then switch.
  /// The burst capacity is re-derived by the caller (set_burst) so rate and
  /// depth stay consistent.
  void set_rate(std::int64_t bytes_per_sec, SimTime now) {
    refill(now);
    rate_ = bytes_per_sec < 0 ? 0 : bytes_per_sec;
    carry_us_ = 0;
  }

  /// Resize the burst capacity; the balance clamps into the new capacity.
  void set_burst(std::int64_t burst_bytes) {
    burst_ = burst_bytes < 0 ? 0 : burst_bytes;
    if (tokens_ > burst_) tokens_ = burst_;
  }

  /// Current balance after refilling to `now`.
  [[nodiscard]] std::int64_t tokens(SimTime now) {
    refill(now);
    return tokens_;
  }

 private:
  std::int64_t rate_ = 0;      // bytes per second; 0 = never refills
  std::int64_t burst_ = 0;     // capacity (bytes)
  std::int64_t tokens_ = 0;    // current balance (bytes)
  std::int64_t carry_us_ = 0;  // sub-byte refill remainder (byte-microseconds)
  SimTime last_ = SimTime::zero();
};

}  // namespace sqos::qos
