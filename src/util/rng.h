// Deterministic random number generation.
//
// Everything stochastic in this project — censor resynchronization entry,
// Geneva's genetic operators, simulated packet loss — draws from an Rng that
// is seeded explicitly, so every experiment is reproducible bit-for-bit.
// There is deliberately no global generator (see C++ Core Guidelines I.2).
//
// The engine is xoshiro256** (Blackman & Vigna, "Scrambled Linear
// Pseudorandom Number Generators", TOMS 2021): four 64-bit words of state,
// expanded from the seed by splitmix64. The distributions are owned here too
// (Lemire's bounded integers, 53-bit doubles), so the stream a seed produces
// is defined by this file alone, not by the standard library in use.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "util/bytes.h"

namespace caya {

/// splitmix64 (Steele, Lea & Flood, OOPSLA 2014): advances `state` by the
/// golden-ratio increment and returns the mixed output. Consecutive outputs
/// are well-separated seeds even for adjacent starting states.
[[nodiscard]] constexpr std::uint64_t splitmix64(
    std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256**: 32 bytes of state, period 2^256 - 1.
class Xoshiro256ss {
 public:
  using State = std::array<std::uint64_t, 4>;

  /// Four consecutive splitmix64 outputs; never the all-zero state.
  explicit constexpr Xoshiro256ss(std::uint64_t seed) noexcept {
    for (std::uint64_t& word : s_) word = splitmix64(seed);
  }

  constexpr std::uint64_t operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  [[nodiscard]] constexpr const State& state() const noexcept { return s_; }
  /// Requires a state with at least one non-zero word (all-zero is the
  /// engine's one fixed point).
  constexpr void set_state(const State& state) noexcept { s_ = state; }

 private:
  State s_{};
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi. One draw,
  /// plus a redraw with probability below (hi - lo + 1) / 2^64; lo == hi
  /// still consumes its draw, so the draw count never depends on the range.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t range = hi - lo;
    if (range == std::numeric_limits<std::uint64_t>::max()) return engine_();
    return lo + bounded(range + 1);
  }

  /// Uniform integer in [0, n); n must be > 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform(0, n - 1));
  }

  /// Uniform double in [0, 1): the top 53 bits of one draw, scaled by 2^-53,
  /// so every value is a multiple of 2^-53.
  [[nodiscard]] double unit() {
    return static_cast<double>(engine_() >> 11) * 0x1p-53;
  }

  /// Bernoulli draw: true with probability p (clamped to [0, 1]). Draws
  /// nothing when p <= 0 or p >= 1.
  [[nodiscard]] bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit() < p;
  }

  /// Uniformly chosen element of a non-empty container.
  template <typename Container>
  [[nodiscard]] auto& pick(Container& c) {
    return c[index(c.size())];
  }
  template <typename Container>
  [[nodiscard]] const auto& pick(const Container& c) {
    return c[index(c.size())];
  }

  /// n independent uniform random bytes (one draw each).
  [[nodiscard]] Bytes bytes(std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(uniform(0, 255));
    return out;
  }

  /// Derives an independent child generator (for parallel-safe subsystems).
  /// Consumes exactly one parent draw.
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Full stream state, the engine's four words as space-separated
  /// decimals. restore_state() on any Rng resumes the stream at exactly
  /// this point: save -> advance -> restore -> advance replays the same
  /// draws bit-for-bit. This is what checkpoint/resume serializes.
  [[nodiscard]] std::string save_state() const;
  /// Restores a state captured by save_state(). Throws
  /// std::invalid_argument, leaving the stream untouched, unless `state` is
  /// exactly four decimal words with at least one non-zero.
  void restore_state(const std::string& state);

  [[nodiscard]] Xoshiro256ss& engine() noexcept { return engine_; }

 private:
  /// Uniform integer in [0, n) for n > 0: Lemire's multiply-shift with
  /// rejection ("Fast Random Integer Generation in an Interval", TOMACS
  /// 2019). Exact, and division-free unless the first draw lands in the
  /// biased sliver.
  std::uint64_t bounded(std::uint64_t n) {
    unsigned __int128 m = static_cast<unsigned __int128>(engine_()) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        m = static_cast<unsigned __int128>(engine_()) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  Xoshiro256ss engine_;
};

}  // namespace caya
