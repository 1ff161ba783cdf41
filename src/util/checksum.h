// RFC 1071 internet checksum, used by the IPv4 and TCP serializers.
//
// Geneva strategies rely on the distinction between packets with valid and
// corrupted checksums ("insertion packets" are accepted by censors that skip
// verification but dropped by end hosts that do verify), so checksums here
// are computed over real wire bytes, not faked.
#pragma once

#include <cstdint>
#include <span>

namespace caya {

/// One's-complement sum over `data`, folded to 16 bits, complemented.
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::uint8_t> data);

/// Incremental accumulator for checksums over multiple regions (e.g. a TCP
/// pseudo-header followed by the segment bytes).
class ChecksumAccumulator {
 public:
  void add(std::span<const std::uint8_t> data);
  void add_u16(std::uint16_t v);
  void add_u32(std::uint32_t v);

  /// Final folded, complemented checksum.
  [[nodiscard]] std::uint16_t finish() const noexcept;

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // true if an odd byte is pending from a previous add()
  std::uint8_t pending_ = 0;
};

}  // namespace caya
