// Strongly-typed simulated time.
//
// All simulation time in ASMan is measured in CPU cycles of the modelled
// machine (the paper reports spinlock waiting times in CPU cycles and the
// Xen Credit scheduler operates on 10 ms slots / 30 ms accounting periods;
// both unit systems meet here). `Cycles` is a thin strong typedef over
// uint64_t so that raw integers, credit values and cycle counts cannot be
// mixed up silently.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>

namespace asman::sim {

/// A duration or point in simulated time, in CPU cycles.
struct Cycles {
  std::uint64_t v{0};

  constexpr Cycles() = default;
  constexpr explicit Cycles(std::uint64_t value) : v(value) {}

  friend constexpr auto operator<=>(Cycles, Cycles) = default;

  constexpr Cycles operator+(Cycles o) const { return Cycles{v + o.v}; }
  constexpr Cycles operator-(Cycles o) const { return Cycles{v - o.v}; }
  constexpr Cycles& operator+=(Cycles o) {
    v += o.v;
    return *this;
  }
  constexpr Cycles& operator-=(Cycles o) {
    v -= o.v;
    return *this;
  }
  constexpr Cycles operator*(std::uint64_t k) const { return Cycles{v * k}; }
  constexpr Cycles operator/(std::uint64_t k) const { return Cycles{v / k}; }
  /// Ratio of two durations as a double (e.g. utilization fractions).
  constexpr double ratio(Cycles denom) const {
    return denom.v == 0 ? 0.0
                        : static_cast<double>(v) / static_cast<double>(denom.v);
  }

  static constexpr Cycles zero() { return Cycles{0}; }
  static constexpr Cycles max() {
    return Cycles{std::numeric_limits<std::uint64_t>::max()};
  }
};

/// Saturating subtraction: max(a - b, 0). Used for "remaining work" math
/// where clock jitter must never wrap around.
constexpr Cycles saturating_sub(Cycles a, Cycles b) {
  return a.v >= b.v ? Cycles{a.v - b.v} : Cycles{0};
}

/// Frequency of the modelled machine; converts wall time to cycles.
/// The paper's testbed is a Xeon X5410 @ 2.33 GHz.
class ClockDomain {
 public:
  constexpr explicit ClockDomain(std::uint64_t hz) : hz_(hz) {}

  constexpr std::uint64_t hz() const { return hz_; }

  constexpr Cycles from_ms(std::uint64_t ms) const {
    return Cycles{hz_ / 1000 * ms};
  }
  constexpr Cycles from_us(std::uint64_t us) const {
    return Cycles{hz_ / 1'000'000 * us};
  }
  constexpr Cycles from_seconds_f(double s) const {
    return Cycles{static_cast<std::uint64_t>(s * static_cast<double>(hz_))};
  }
  constexpr double to_seconds(Cycles c) const {
    return static_cast<double>(c.v) / static_cast<double>(hz_);
  }
  constexpr double to_ms(Cycles c) const { return to_seconds(c) * 1e3; }

 private:
  std::uint64_t hz_;
};

/// Default clock domain used across the reproduction (Xeon X5410).
inline constexpr ClockDomain kDefaultClock{2'330'000'000ULL};

/// floor(log2(cycles)), with log2(0) reported as 0. Spinlock waiting times
/// in the paper are always bucketed by powers of two (2^10 .. 2^30).
constexpr unsigned log2_floor(Cycles c) {
  unsigned b = 0;
  for (std::uint64_t x = c.v; x > 1; x >>= 1) ++b;
  return b;
}

/// 2^exp cycles — the paper's thresholds are expressed this way (delta=20).
constexpr Cycles pow2_cycles(unsigned exp) { return Cycles{1ULL << exp}; }

}  // namespace asman::sim
