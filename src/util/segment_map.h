// A map from 32-bit sequence number to a byte segment, kept in one buffer
// leased from a BufferArena: a record per segment, sorted by seq and found
// by binary search, in slots that double as they fill, followed by the
// segment bytes. It replaces a std::map<std::uint32_t, Bytes>, whose every
// insert allocated a node. The censors' reassembler and the TCP endpoint's
// out-of-order queue use it.
//
// The buffer is leased on the first insert and goes back on clear() and
// destruction, to the thread's arena or to one the owner names. A segment
// that is overwritten or erased leaves its bytes behind as garbage; once
// garbage outweighs the live bytes the live segments are compacted, so a
// flood of overwrites cannot grow the buffer without bound.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.h"

namespace caya {

class BufferArena;

class SegmentMap {
 public:
  /// Leases from the thread's arena.
  SegmentMap() = default;
  /// Leases from `storage`, or from the thread's arena when null.
  explicit SegmentMap(BufferArena* storage) noexcept : storage_(storage) {}
  ~SegmentMap() { clear(); }
  SegmentMap(SegmentMap&& other) noexcept;
  SegmentMap& operator=(SegmentMap&& other) noexcept;
  SegmentMap(const SegmentMap&) = delete;
  SegmentMap& operator=(const SegmentMap&) = delete;

  /// Number of segments.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Bytes held by the live segments.
  [[nodiscard]] std::size_t live_bytes() const noexcept { return live_; }

  /// The segment stored at exactly `seq`, if any.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> find(
      std::uint32_t seq) const noexcept;

  /// Stores `bytes` at `seq`, replacing any segment already there.
  void assign(std::uint32_t seq, std::span<const std::uint8_t> bytes);

  /// The i-th segment in ascending seq order (i < size()).
  [[nodiscard]] std::uint32_t seq_at(std::size_t i) const noexcept {
    return load(i).seq;
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes_at(
      std::size_t i) const noexcept;
  /// Removes the i-th segment; later segments move down one index.
  void erase_at(std::size_t i) noexcept;

  /// Drops every segment and returns the buffer to its arena.
  void clear() noexcept;

 private:
  struct Record {
    std::uint32_t seq;
    std::uint32_t offset;  // from the start of the bytes region
    std::uint32_t length;
  };

  /// The arena leases come from.
  [[nodiscard]] BufferArena& source() const noexcept;
  [[nodiscard]] Record load(std::size_t i) const noexcept;
  void store(std::size_t i, const Record& r) noexcept;
  /// Where the bytes region starts: just past the record slots.
  [[nodiscard]] std::size_t data_start() const noexcept {
    return slots_ * sizeof(Record);
  }
  /// Index of the first record whose seq is not below `seq`.
  [[nodiscard]] std::size_t lower_bound(std::uint32_t seq) const noexcept;
  /// Record slots a map's first insert makes room for.
  static constexpr std::size_t kFirstSlots = 4;
  /// Doubles the record slots (the first insert makes kFirstSlots).
  void add_slots();
  /// Appends `bytes` to the bytes region (compacting first when garbage
  /// dominates) and returns their offset in it.
  std::uint32_t append(std::span<const std::uint8_t> bytes);
  void compact();

  BufferArena* storage_ = nullptr;
  Bytes buf_;  // Record[slots_], the first count_ ascending by seq; bytes
  std::size_t count_ = 0;
  std::size_t slots_ = 0;
  std::size_t live_ = 0;
};

}  // namespace caya
