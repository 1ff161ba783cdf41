// Every metric the benchmark reports, with its unit. The untraced run
// prints the end-to-end metrics and the traced run the per-layer ones, in
// this order; BENCHMARK.json and perfbench/README.md list the same names.
#pragma once

#include <string_view>
#include <vector>

namespace perfbench {

struct MetricInfo {
  std::string_view name;
  std::string_view unit;
  bool end_to_end = false;
  /// A deterministic count: repeats bit-for-bit between runs of one seed.
  bool exact = false;
};

[[nodiscard]] const std::vector<MetricInfo>& catalog();

}  // namespace perfbench
