#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace caya {

RateCounter::Interval RateCounter::wilson(double z) const noexcept {
  if (trials_ == 0) return {};
  const double n = static_cast<double>(trials_);
  const double p = rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  // Clamped, so a 0/n rate starts at +0.0 rather than a rounding error
  // below zero.
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

std::string percent(double rate) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.0f%%", rate * 100.0);
  return buf;
}

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

}  // namespace caya
