// A per-thread free-list of reusable byte buffers for the packet hot paths.
//
// Every serialize / checksum-validation call used to allocate (and free) one
// or more transient std::vectors; across a GA run that is millions of
// allocations. BufferArena keeps released buffers (capacity intact) on a
// thread-local free list, so steady-state packet processing allocates
// nothing. One arena per thread — pool workers each get their own, and a
// buffer acquired on a thread is released on the same thread, so there is no
// cross-thread sharing and no locking.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace caya {

class BufferArena {
 public:
  struct Stats {
    std::uint64_t acquires = 0;  // buffers handed out
    std::uint64_t reuses = 0;    // ... of which came off the free list
    std::uint64_t fresh = 0;     // ... of which were newly allocated
    std::uint64_t releases = 0;  // buffers returned
  };

  /// Hands out an empty buffer (recycled when possible). The caller owns it
  /// until release(); capacity from earlier uses is retained.
  [[nodiscard]] Bytes acquire();

  /// Returns a buffer to the free list for reuse on this thread.
  void release(Bytes&& buf) noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// This thread's arena (one pool per worker, never shared across threads).
  [[nodiscard]] static BufferArena& local() noexcept;

  /// Same, or nullptr once this thread's arena has been destroyed. A thread
  /// destroys its thread-locals before the process destroys its statics, so
  /// a buffer held in static storage is released after the arena is gone.
  [[nodiscard]] static BufferArena* local_if_alive() noexcept;

  /// Process-wide totals across all thread arenas (relaxed counters, for the
  /// bench's allocation accounting).
  [[nodiscard]] static Stats global_stats() noexcept;

  /// RAII lease: acquires from the arena on construction, releases on
  /// destruction. The usual way to use a scratch buffer:
  ///   BufferArena::Scoped scratch;
  ///   fill(*scratch); ... // buffer returns to this thread's arena at scope end
  class Scoped {
   public:
    Scoped() : buf_(BufferArena::local().acquire()) {}
    ~Scoped() { BufferArena::local().release(std::move(buf_)); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

    [[nodiscard]] Bytes& operator*() noexcept { return buf_; }
    [[nodiscard]] Bytes* operator->() noexcept { return &buf_; }

   private:
    Bytes buf_;
  };

 private:
  // Free buffers kept beyond this are returned to the allocator instead; the
  // packet paths never hold more than a handful of buffers at once.
  static constexpr std::size_t kMaxFree = 64;

  std::vector<Bytes> free_;
  Stats stats_;
};

}  // namespace caya
