#include "util/segment_map.h"

#include <cstring>
#include <utility>

#include "util/arena.h"

namespace caya {

SegmentMap::SegmentMap(SegmentMap&& other) noexcept
    : storage_(other.storage_),
      buf_(std::exchange(other.buf_, Bytes())),
      count_(std::exchange(other.count_, 0)),
      slots_(std::exchange(other.slots_, 0)),
      live_(std::exchange(other.live_, 0)) {}

SegmentMap& SegmentMap::operator=(SegmentMap&& other) noexcept {
  if (this != &other) {
    clear();
    storage_ = other.storage_;
    buf_ = std::exchange(other.buf_, Bytes());
    count_ = std::exchange(other.count_, 0);
    slots_ = std::exchange(other.slots_, 0);
    live_ = std::exchange(other.live_, 0);
  }
  return *this;
}

BufferArena& SegmentMap::source() const noexcept {
  return storage_ != nullptr ? *storage_ : BufferArena::local();
}

SegmentMap::Record SegmentMap::load(std::size_t i) const noexcept {
  Record r;
  std::memcpy(&r, buf_.data() + i * sizeof(Record), sizeof(Record));
  return r;
}

void SegmentMap::store(std::size_t i, const Record& r) noexcept {
  std::memcpy(buf_.data() + i * sizeof(Record), &r, sizeof(Record));
}

std::size_t SegmentMap::lower_bound(std::uint32_t seq) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (load(mid).seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::optional<std::span<const std::uint8_t>> SegmentMap::find(
    std::uint32_t seq) const noexcept {
  const std::size_t i = lower_bound(seq);
  if (i == count_ || load(i).seq != seq) return std::nullopt;
  return bytes_at(i);
}

std::span<const std::uint8_t> SegmentMap::bytes_at(
    std::size_t i) const noexcept {
  const Record r = load(i);
  return {buf_.data() + data_start() + r.offset, r.length};
}

void SegmentMap::assign(std::uint32_t seq,
                        std::span<const std::uint8_t> bytes) {
  if (buf_.capacity() == 0) buf_ = source().acquire();
  const auto length = static_cast<std::uint32_t>(bytes.size());
  const std::size_t i = lower_bound(seq);
  if (i < count_ && load(i).seq == seq) {
    Record r = load(i);
    live_ -= r.length;
    if (length <= r.length) {
      // Fits where the old bytes were; the tail they leave is garbage.
      if (length > 0) {
        std::memcpy(buf_.data() + data_start() + r.offset, bytes.data(),
                    length);
      }
    } else {
      r.length = 0;  // the old bytes are garbage before any compaction
      store(i, r);
      r.offset = append(bytes);
    }
    r.length = length;
    store(i, r);
    live_ += length;
    return;
  }
  if (count_ == slots_) add_slots();
  const std::uint32_t offset = append(bytes);
  // Only the records after i move up a slot; the bytes stay where they are.
  std::memmove(buf_.data() + (i + 1) * sizeof(Record),
               buf_.data() + i * sizeof(Record),
               (count_ - i) * sizeof(Record));
  ++count_;
  store(i, Record{seq, offset, length});
  live_ += length;
}

void SegmentMap::erase_at(std::size_t i) noexcept {
  live_ -= load(i).length;
  std::memmove(buf_.data() + i * sizeof(Record),
               buf_.data() + (i + 1) * sizeof(Record),
               (count_ - i - 1) * sizeof(Record));
  if (--count_ == 0) {  // nothing live: drop the slots and the garbage
    buf_.clear();
    slots_ = 0;
  }
}

void SegmentMap::add_slots() {
  // Doubling the slots moves the bytes region once per doubling, where a
  // record inserted in front of it would move it on every insert: an
  // in-order flood up to the segment budget stays linear.
  const std::size_t more = slots_ == 0 ? kFirstSlots : slots_;
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(data_start()),
              more * sizeof(Record), 0);
  slots_ += more;
}

std::uint32_t SegmentMap::append(std::span<const std::uint8_t> bytes) {
  // Compact only when the append would otherwise grow the buffer and at
  // least half of the bytes region is garbage.
  const std::size_t held = buf_.size() - data_start();
  if (buf_.size() + bytes.size() > buf_.capacity() && held - live_ > live_) {
    compact();
  }
  const auto offset = static_cast<std::uint32_t>(buf_.size() - data_start());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  return offset;
}

void SegmentMap::compact() {
  BufferArena& arena = source();
  Bytes packed = arena.acquire();
  packed.assign(buf_.begin(),
                buf_.begin() + static_cast<std::ptrdiff_t>(data_start()));
  for (std::size_t i = 0; i < count_; ++i) {
    Record r = load(i);
    const std::uint8_t* from = buf_.data() + data_start() + r.offset;
    r.offset = static_cast<std::uint32_t>(packed.size() - data_start());
    packed.insert(packed.end(), from, from + r.length);
    std::memcpy(packed.data() + i * sizeof(Record), &r, sizeof(Record));
  }
  buf_.swap(packed);
  arena.release(std::move(packed));  // the old buffer
}

void SegmentMap::clear() noexcept {
  count_ = 0;
  slots_ = 0;
  live_ = 0;
  if (buf_.capacity() == 0) return;
  // A map in a thread-local pool can be destroyed after this thread's
  // arena; its buffer then simply frees.
  BufferArena* arena =
      storage_ != nullptr ? storage_ : BufferArena::local_if_alive();
  if (arena != nullptr) arena->release(std::move(buf_));
  buf_ = Bytes();
}

}  // namespace caya
