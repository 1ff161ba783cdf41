#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.empty()) return {};
  if (xs.size() == 1) return {xs[0], xs[0], xs[0]};
  std::sort(xs.begin(), xs.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, and cut point i
  // sits at position i * m / 4 (1-based), interpolated between neighbours.
  const auto m = static_cast<long long>(xs.size()) + 1;
  const auto last = static_cast<long long>(xs.size()) - 1;
  double cut[3];
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, last);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (xs[j - 1] * static_cast<double>(4 - delta) +
                  xs[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double iqr_share(const std::vector<double>& xs) {
  const Quartiles q = quartiles(xs);
  return q.q2 == 0.0 ? 0.0 : (q.q3 - q.q1) / q.q2;
}

double tail_percentile(std::size_t n) {
  // Percentile 100 * (1 - 1/d) leaves n / d samples beyond it.
  struct Rung {
    std::size_t d;
    double p;
  };
  constexpr Rung kLadder[] = {{2, 50.0},        {10, 90.0},
                              {100, 99.0},      {1000, 99.9},
                              {10'000, 99.99},  {100'000, 99.999}};
  double best = 0.0;
  for (const Rung& rung : kLadder) {
    if (n >= 10 * rung.d) best = rung.p;
  }
  return best;
}

void Latencies::add(double value) {
  ++seen_;
  if (size_ < kept_.size()) {
    kept_[size_++] = static_cast<float>(value);
    return;
  }
  if (kept_.empty()) return;
  // splitmix64 of a counter: a fixed stream, so equal inputs keep equal
  // samples.
  std::uint64_t x = ++draws_ * 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  const std::uint64_t slot = x % seen_;
  if (slot < kept_.size()) kept_[slot] = static_cast<float>(value);
}

std::vector<double> Latencies::samples() const {
  return {kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(size_)};
}

}  // namespace perfbench
