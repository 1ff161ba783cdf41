// Spans for the traced run: kept in memory while the benchmark runs and
// written out when it ends. Every span is recorded by the benchmark's own
// code around a call into one caya layer; nothing inside src/ is touched.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal: the layer boundary crossed
  std::uint32_t parent = 0;
  std::uint64_t trial = 0;  // trial or operation id within its round
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool truncated = false;  // a child span was dropped at the capacity
};

/// Thread-safe span store with a fixed capacity; spans beyond it are
/// counted and dropped, so a long run cannot grow memory without bound.
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = 0xffff'ffffu;

  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Records a finished span; returns its id (kNone when dropped).
  std::uint32_t add(const char* name, std::uint32_t parent, std::uint64_t trial,
                    std::int64_t start_ns, std::int64_t end_ns);
  /// Starts a span whose children are recorded before it ends.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t trial);
  void close(std::uint32_t id);

  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::size_t dropped() const;

  /// Tab-separated: id, parent (-1 for roots), trial, name, start, end,
  /// truncated (0 or 1).
  /// Returns false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Total and self time per span name. Self time is a span's duration minus
/// the part of it its children cover (children running in parallel are
/// merged, so overlapping children are not counted twice). Truncated spans
/// are left out: with a child missing, their self time would be overstated.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
[[nodiscard]] std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Covered length of the union of [start, end) intervals, clipped to
/// [lo, hi).
[[nodiscard]] std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi);

}  // namespace perfbench
