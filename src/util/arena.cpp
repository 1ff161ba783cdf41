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
  Bytes buf;
  buf.reserve(kMinCapacity);
  return buf;
}

void BufferArena::release(Bytes&& buf) noexcept {
  ++stats_.releases;
  g_releases.fetch_add(1, std::memory_order_relaxed);
  // buf frees normally when the list is full, or when it is smaller than
  // the floor (a Payload built from a caller's Bytes releases that buffer
  // here): every buffer on the list holds kMinCapacity bytes.
  if (free_.size() >= kMaxFree || buf.capacity() < kMinCapacity) return;
  // The list grows only while it reaches a new peak (a warm-up): a GFW
  // box's arena holds a few buffers, and a full kMaxFree slots in each of
  // a pool's boxes would cost more than the buffers themselves.
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
