#include "util/arena.h"

namespace caya {

namespace {

// Process-wide allocation accounting, updated with relaxed atomics so the
// per-thread fast path stays lock-free and TSan-clean.
std::atomic<std::uint64_t> g_acquires{0};
std::atomic<std::uint64_t> g_reuses{0};
std::atomic<std::uint64_t> g_fresh{0};
std::atomic<std::uint64_t> g_releases{0};

// Set when this thread's arena is destroyed. A trivially destructible
// thread-local stays readable after the arena itself is gone.
thread_local bool t_arena_destroyed = false;

struct LocalArena {
  BufferArena arena;
  ~LocalArena() { t_arena_destroyed = true; }
};

}  // namespace

Bytes BufferArena::acquire() {
  ++stats_.acquires;
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  if (!free_.empty()) {
    Bytes buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    ++stats_.reuses;
    g_reuses.fetch_add(1, std::memory_order_relaxed);
    return buf;
  }
  ++stats_.fresh;
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return Bytes{};
}

void BufferArena::release(Bytes&& buf) noexcept {
  ++stats_.releases;
  g_releases.fetch_add(1, std::memory_order_relaxed);
  if (free_.size() >= kMaxFree) return;  // buf frees normally
  if (free_.capacity() < kMaxFree) free_.reserve(kMaxFree);
  free_.push_back(std::move(buf));
}

BufferArena& BufferArena::local() noexcept {
  thread_local LocalArena local;
  return local.arena;
}

BufferArena* BufferArena::local_if_alive() noexcept {
  return t_arena_destroyed ? nullptr : &local();
}

BufferArena::Stats BufferArena::global_stats() noexcept {
  Stats stats;
  stats.acquires = g_acquires.load(std::memory_order_relaxed);
  stats.reuses = g_reuses.load(std::memory_order_relaxed);
  stats.fresh = g_fresh.load(std::memory_order_relaxed);
  stats.releases = g_releases.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace caya
