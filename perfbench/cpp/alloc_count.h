// Heap-allocation counters fed by the benchmark binary's replacement global
// operator new. Counts every thread; read them around a span that runs
// while the other threads are idle.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

[[nodiscard]] AllocCount alloc_count() noexcept;

[[nodiscard]] inline AllocCount operator-(AllocCount a, AllocCount b) {
  return {a.calls - b.calls, a.bytes - b.bytes};
}

}  // namespace perfbench
