// IPv4 header model and wire codec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "packet/decode.h"
#include "util/bytes.h"

namespace caya {

/// IPv4 address as a host-order 32-bit integer with dotted-quad conversion.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) noexcept
      : value_(value) {}
  /// The dotted quad a.b.c.d.
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d) noexcept
      : value_(std::uint32_t{a} << 24 | std::uint32_t{b} << 16 |
               std::uint32_t{c} << 8 | d) {}
  /// Parses "a.b.c.d"; throws std::invalid_argument on malformed input.
  static Ipv4Address parse(std::string_view dotted);

  [[nodiscard]] constexpr std::uint32_t value() const noexcept {
    return value_;
  }
  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(Ipv4Address, Ipv4Address) = default;
  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv4 header fields. `total_length` and `checksum` are normally computed at
/// serialization time; Geneva tampers can pin them via the override flags in
/// Packet.
struct Ipv4Header {
  std::uint8_t version = 4;
  std::uint8_t ihl = 5;  // 32-bit words; 5 = no options
  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  // filled in by serializer unless overridden
  std::uint16_t id = 0;
  std::uint8_t flags = 0;           // bit 0 = reserved, 1 = DF, 2 = MF
  std::uint16_t frag_offset = 0;    // in 8-byte units
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 6;        // TCP
  std::uint16_t checksum = 0;       // filled in by serializer unless overridden
  Ipv4Address src;
  Ipv4Address dst;

  static constexpr std::uint8_t kFlagDontFragment = 0x2;
  static constexpr std::uint8_t kFlagMoreFragments = 0x1;

  [[nodiscard]] std::size_t header_length() const noexcept {
    return static_cast<std::size_t>(ihl) * 4;
  }

  /// Serializes the 20-byte header. When `compute_checksum` is true the
  /// checksum field is recomputed from the other fields; otherwise the stored
  /// value is emitted verbatim.
  [[nodiscard]] Bytes serialize(std::uint16_t payload_length,
                                bool compute_checksum = true,
                                bool compute_length = true) const;
  /// Same, written into `out` (cleared first; capacity retained) so hot
  /// paths can reuse an arena buffer.
  void serialize_into(Bytes& out, std::uint16_t payload_length,
                      bool compute_checksum = true,
                      bool compute_length = true) const;

  /// Non-throwing parse: kTruncated / kBadVersion / kBadHeaderLength /
  /// kHeaderOffsetOverflow instead of exceptions. On success `consumed` is
  /// ihl*4 (options skipped as opaque).
  static DecodeResult<Ipv4Header> try_parse(
      std::span<const std::uint8_t> data) noexcept;

  /// Parses a header from `data`; throws ShortReadError / invalid_argument on
  /// truncated or non-v4 input. On success `consumed` is set to ihl*4.
  /// Implemented over try_parse — the two can never disagree.
  static Ipv4Header parse(std::span<const std::uint8_t> data,
                          std::size_t& consumed);
};

}  // namespace caya
