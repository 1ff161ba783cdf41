#include "util/checksum.h"

namespace caya {

void ChecksumAccumulator::add(std::span<const std::uint8_t> data) {
  std::size_t i = 0;
  if (odd_ && !data.empty()) {
    // Pair the pending high byte with the first byte of this region.
    sum_ += static_cast<std::uint64_t>(pending_) << 8 | data[0];
    odd_ = false;
    i = 1;
  }
  for (; i + 1 < data.size(); i += 2) {
    sum_ += static_cast<std::uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {
    pending_ = data[i];
    odd_ = true;
  }
}

void ChecksumAccumulator::add_u16(std::uint16_t v) {
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v & 0xff)};
  add(bytes);
}

void ChecksumAccumulator::add_u32(std::uint32_t v) {
  add_u16(static_cast<std::uint16_t>(v >> 16));
  add_u16(static_cast<std::uint16_t>(v & 0xffff));
}

std::uint16_t ChecksumAccumulator::finish() const noexcept {
  std::uint64_t sum = sum_;
  if (odd_) sum += static_cast<std::uint64_t>(pending_) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.finish();
}

}  // namespace caya
