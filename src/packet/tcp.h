// TCP header model, including the options Geneva manipulates (window scale,
// MSS), and the wire codec with pseudo-header checksums.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packet/ipv4.h"
#include "packet/tcp_flags.h"
#include "util/bytes.h"

namespace caya {

/// A single TCP option in kind/length/value form. kEndOfOptions and kNop have
/// no length/value on the wire.
struct TcpOption {
  std::uint8_t kind = 0;
  Bytes data;  // value bytes (excluding kind and length octets)

  static constexpr std::uint8_t kEndOfOptions = 0;
  static constexpr std::uint8_t kNop = 1;
  static constexpr std::uint8_t kMss = 2;
  static constexpr std::uint8_t kWindowScale = 3;
  static constexpr std::uint8_t kSackPermitted = 4;
  static constexpr std::uint8_t kTimestamps = 8;

  friend bool operator==(const TcpOption&, const TcpOption&) = default;
};

struct TcpHeader {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  // 32-bit words; recomputed unless overridden
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;  // recomputed at serialization unless overridden
  std::uint16_t urgent_pointer = 0;
  std::vector<TcpOption> options;

  /// Looks up the first option with `kind`, if any.
  [[nodiscard]] const TcpOption* find_option(std::uint8_t kind) const noexcept;
  /// Removes every option with `kind`; returns how many were removed.
  std::size_t remove_option(std::uint8_t kind);
  /// Replaces (or appends) the option with `kind`.
  void set_option(std::uint8_t kind, Bytes data);

  /// Window-scale shift advertised in a SYN/SYN+ACK, if present.
  [[nodiscard]] std::optional<std::uint8_t> window_scale() const noexcept;
  [[nodiscard]] std::optional<std::uint16_t> mss() const noexcept;

  /// Serialized option bytes, padded with NOPs to a 4-byte boundary.
  [[nodiscard]] Bytes serialize_options() const;
  /// Same, written into `out` (cleared first; capacity retained) so hot
  /// paths can reuse an arena buffer.
  void serialize_options_into(Bytes& out) const;

  /// Header length in bytes implied by the current options (>= 20).
  [[nodiscard]] std::size_t computed_header_length() const;

  /// Serializes header + payload with the IPv4 pseudo-header checksum over
  /// (src, dst). When `compute_checksum` is false the stored checksum field
  /// is emitted verbatim (used for deliberately corrupted packets). When
  /// `compute_offset` is false the stored data_offset is emitted verbatim.
  [[nodiscard]] Bytes serialize(Ipv4Address src, Ipv4Address dst,
                                std::span<const std::uint8_t> payload,
                                bool compute_checksum = true,
                                bool compute_offset = true) const;
  /// Same, written into `out` (cleared first; capacity retained). The
  /// checksum-validation paths call this once per delivered packet, so they
  /// lease `out` from the per-thread BufferArena instead of allocating.
  void serialize_into(Bytes& out, Ipv4Address src, Ipv4Address dst,
                      std::span<const std::uint8_t> payload,
                      bool compute_checksum = true,
                      bool compute_offset = true) const;

  /// Non-throwing parse: kTruncated / kBadHeaderLength (data offset < 5) /
  /// kHeaderOffsetOverflow (declared offset past the buffer) /
  /// kOptionOverrun (an option length escaping the option region). On
  /// success `consumed` is the header length; payload follows.
  static DecodeResult<TcpHeader> try_parse(std::span<const std::uint8_t> data);

  /// Parses a TCP header (with options) from `data`. `consumed` is set to the
  /// header length; payload follows. Throws on truncation/malformed options.
  /// Implemented over try_parse — the two can never disagree.
  static TcpHeader parse(std::span<const std::uint8_t> data,
                         std::size_t& consumed);
};

/// Computes the TCP checksum over pseudo-header + segment.
[[nodiscard]] std::uint16_t tcp_checksum(Ipv4Address src, Ipv4Address dst,
                                         std::span<const std::uint8_t> segment);

}  // namespace caya
