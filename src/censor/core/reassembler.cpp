#include "censor/core/reassembler.h"

namespace caya {

bool Reassembler::add_segment(std::uint32_t seq,
                              std::span<const std::uint8_t> payload) {
  if (payload.empty()) return true;
  const std::size_t buffered = segments_.live_bytes();
  if (const auto old = segments_.find(seq)) {
    if (buffered - old->size() + payload.size() > max_bytes_) return false;
  } else if (segments_.size() >= max_segments_ ||
             buffered + payload.size() > max_bytes_) {
    return false;
  }
  segments_.assign(seq, payload);
  return true;
}

void Reassembler::assemble(Bytes& out) const {
  std::uint32_t next = base_;
  while (const auto seg = segments_.find(next)) {
    out.insert(out.end(), seg->begin(), seg->end());
    next += static_cast<std::uint32_t>(seg->size());
    if (out.size() > kByteCap) break;  // bounded buffer
  }
}

void Reassembler::clear() { segments_.clear(); }

}  // namespace caya
