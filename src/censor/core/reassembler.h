// Stream reassembly for censor models — stage 2 of the censor pipeline.
//
// Reassembling censor boxes (China's HTTP/HTTPS/DNS boxes, sometimes FTP)
// buffer out-of-order client segments and inspect the contiguous prefix
// from their believed stream base; non-reassembling boxes (SMTP, Kazakhstan,
// Turkmenistan) inspect packets in isolation and fail open on any gap.
// Whether a given flow gets a Reassembler at all is a per-box *probability*
// (the paper's per-box reassembly capability, Table 2 / §6) — the censor
// draws it once per flow, at the SYN, from its own RNG stream
// (GfwBoxParams::p_reassembly), so the RNG consumption order is part of the
// box's pinned behaviour.
//
// Segment buffers are leased from the per-thread BufferArena and returned
// on clear()/rebase()/destruction, so steady-state reassembly across a
// campaign allocates nothing; the assembled prefix is written into a
// caller-provided scratch buffer (callers pass a BufferArena::Scoped).
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "util/bytes.h"

namespace caya {

class Reassembler {
 public:
  /// Bounded inspection buffer: assembly stops once the prefix exceeds
  /// this many bytes.
  static constexpr std::size_t kByteCap = 65536;

  Reassembler() = default;
  ~Reassembler() { clear(); }

  Reassembler(Reassembler&& other) noexcept
      : base_(other.base_),
        max_segments_(other.max_segments_),
        max_bytes_(other.max_bytes_),
        buffered_bytes_(other.buffered_bytes_),
        segments_(std::move(other.segments_)) {
    other.segments_.clear();
    other.buffered_bytes_ = 0;
  }
  Reassembler& operator=(Reassembler&& other) noexcept {
    if (this != &other) {
      clear();
      base_ = other.base_;
      max_segments_ = other.max_segments_;
      max_bytes_ = other.max_bytes_;
      buffered_bytes_ = other.buffered_bytes_;
      segments_ = std::move(other.segments_);
      other.segments_.clear();
      other.buffered_bytes_ = 0;
    }
    return *this;
  }
  Reassembler(const Reassembler&) = delete;
  Reassembler& operator=(const Reassembler&) = delete;

  /// Buffers one segment (later copies of the same seq overwrite). Takes a
  /// span so both Bytes and copy-on-write Payload buffers bind without a
  /// conversion copy. Returns false — and buffers nothing — when the
  /// segment-count or buffered-byte budget would be exceeded: an
  /// overlap-flood drops on the floor (fail open) instead of growing state.
  /// Empty payloads are ignored (nothing to inspect; a zero-length segment
  /// would stall the contiguous-prefix walk).
  bool add_segment(std::uint32_t seq, std::span<const std::uint8_t> payload);

  /// Moves the believed stream base — the resynchronization action. All
  /// buffered segments are discarded (the box's stream view is void).
  void rebase(std::uint32_t base) {
    clear();
    base_ = base;
  }

  [[nodiscard]] std::uint32_t base() const noexcept { return base_; }

  /// Appends the contiguous prefix starting at base() to `out` (which the
  /// caller has cleared / freshly leased). Stops at the first gap or once
  /// the prefix exceeds the byte cap.
  void assemble(Bytes& out) const;

  /// Releases every buffered segment back to this thread's arena.
  void clear();

  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffered_bytes_;
  }

  /// Hard per-flow state budgets (segment count / buffered bytes). Defaults
  /// are far above any legitimate flow; floods hit them immediately.
  void set_budgets(std::size_t max_segments, std::size_t max_bytes) noexcept {
    max_segments_ = max_segments;
    max_bytes_ = max_bytes;
  }
  [[nodiscard]] std::size_t max_segments() const noexcept {
    return max_segments_;
  }
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// Default per-flow budgets: a real flow's inspection window is bounded
  /// by kByteCap (64 KiB), so 1024 segments / 256 KiB of buffer per flow is
  /// already pathological input.
  static constexpr std::size_t kDefaultMaxSegments = 1024;
  static constexpr std::size_t kDefaultMaxBytes = 262144;

 private:
  std::uint32_t base_ = 0;
  std::size_t max_segments_ = kDefaultMaxSegments;
  std::size_t max_bytes_ = kDefaultMaxBytes;
  std::size_t buffered_bytes_ = 0;
  std::map<std::uint32_t, Bytes> segments_;  // seq -> arena-leased payload
};

}  // namespace caya
