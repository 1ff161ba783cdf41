#include "censor/core/reassembler.h"

#include <utility>

#include "util/arena.h"

namespace caya {

bool Reassembler::add_segment(std::uint32_t seq,
                              std::span<const std::uint8_t> payload) {
  if (payload.empty()) return true;
  const auto it = segments_.find(seq);
  if (it != segments_.end()) {
    const std::size_t without_old = buffered_bytes_ - it->second.size();
    if (without_old + payload.size() > max_bytes_) return false;
    it->second.assign(payload.begin(), payload.end());
    buffered_bytes_ = without_old + payload.size();
    return true;
  }
  if (segments_.size() >= max_segments_ ||
      buffered_bytes_ + payload.size() > max_bytes_) {
    return false;
  }
  Bytes buf = BufferArena::local().acquire();
  buf.assign(payload.begin(), payload.end());
  buffered_bytes_ += buf.size();
  segments_.emplace(seq, std::move(buf));
  return true;
}

void Reassembler::assemble(Bytes& out) const {
  std::uint32_t next = base_;
  while (true) {
    const auto seg = segments_.find(next);
    if (seg == segments_.end()) break;
    if (seg->second.empty()) break;  // zero-length segment: no progress
    out.insert(out.end(), seg->second.begin(), seg->second.end());
    next += static_cast<std::uint32_t>(seg->second.size());
    if (out.size() > kByteCap) break;  // bounded buffer
  }
}

void Reassembler::clear() {
  // A reassembler in a thread-local pool can be destroyed after this
  // thread's arena; its buffers then simply free.
  if (BufferArena* arena = BufferArena::local_if_alive()) {
    for (auto& [seq, buf] : segments_) arena->release(std::move(buf));
  }
  segments_.clear();
  buffered_bytes_ = 0;
}

}  // namespace caya
