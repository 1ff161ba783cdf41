// Order statistics the benchmark reports: medians, interpolated
// percentiles, quartiles that match Python's statistics.quantiles(n=4), and
// the rule that picks the tail percentile a sample can support.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of the sample; 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

/// Percentile `p` (0..100) by linear interpolation between closest ranks;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method, the default of Python's
/// statistics.quantiles(data, n=4). A sample of one gives that value three
/// times; an empty sample gives zeros.
[[nodiscard]] Quartiles quartiles(std::vector<double> xs);

/// Interquartile range as a share of the median: (q3 - q1) / q2.
[[nodiscard]] double iqr_share(const std::vector<double>& xs);

/// The highest percentile of 50, 90, 99, 99.9, ... that has at least ten
/// samples beyond it in a sample of `n`; 0 when even the median has fewer.
[[nodiscard]] double tail_percentile(std::size_t n);

/// Operation latencies in bounded memory: every sample until `capacity`,
/// then a uniform reservoir sample (Vitter's algorithm R on a fixed
/// splitmix64 stream). Storage is allocated and touched up front, so a
/// run's resident memory does not depend on how many operations the
/// machine completes. Not thread-safe.
class Latencies {
 public:
  explicit Latencies(std::size_t capacity) : kept_(capacity, 0.0f) {}

  void add(double value);
  /// Samples offered so far.
  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }
  /// The samples kept: all of them, or a uniform sample of `capacity`.
  [[nodiscard]] std::vector<double> samples() const;

 private:
  std::vector<float> kept_;
  std::size_t size_ = 0;
  std::size_t seen_ = 0;
  std::uint64_t draws_ = 0;
};

}  // namespace perfbench
