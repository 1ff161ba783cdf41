// A full IPv4/TCP packet: the unit that Geneva actions manipulate and that
// the simulator moves between hosts and censors.
#pragma once

#include <cstdint>
#include <string>

#include "packet/ipv4.h"
#include "packet/payload.h"
#include "packet/tcp.h"
#include "util/bytes.h"

namespace caya {

struct Packet {
  Ipv4Header ip;
  TcpHeader tcp;
  Payload payload;  // copy-on-write: Packet copies share the buffer

  // Geneva's tamper semantics: writes to checksum/length/offset fields pin
  // the stored value instead of letting the serializer recompute it. These
  // flags record such pins.
  bool ip_checksum_overridden = false;
  bool ip_length_overridden = false;
  bool tcp_checksum_overridden = false;
  bool tcp_offset_overridden = false;

  [[nodiscard]] std::size_t payload_size() const noexcept {
    return payload.size();
  }

  /// Sequence space consumed by this segment (payload bytes + SYN/FIN).
  [[nodiscard]] std::uint32_t sequence_length() const noexcept;

  /// Serializes IP header + TCP segment to wire bytes, honoring any
  /// checksum/length overrides.
  [[nodiscard]] Bytes serialize() const;
  /// Same, written into `out` (cleared first; capacity retained) so batch
  /// writers (pcap, replay) can reuse one buffer across packets.
  void serialize_into(Bytes& out) const;

  /// Non-throwing parse of IP header + TCP segment. TCP-layer failures
  /// report `error_offset` relative to the start of `wire`. This is the
  /// ingest entry point for hostile bytes: replay, pcap loading, and the
  /// fuzz oracle route through it and account failures as fail-open.
  static DecodeResult<Packet> try_parse(std::span<const std::uint8_t> wire);

  /// Parses wire bytes back into a Packet. The parsed packet keeps whatever
  /// checksums were on the wire; callers use the *_valid() helpers to verify.
  /// Implemented over try_parse — the two can never disagree.
  static Packet parse(std::span<const std::uint8_t> wire);

  /// The TCP checksum a fresh serialization of this packet would carry: the
  /// serializer's RFC 1071 fold over the segment, read back from its bytes.
  [[nodiscard]] std::uint16_t computed_tcp_checksum() const;

  /// No-op: nothing is cached. perfbench's packet probe still calls it.
  void tcp_sum_invalidate() noexcept {}

  /// True when the TCP checksum on a re-serialization of this packet matches
  /// the stored/pinned checksum. End hosts verify this; most censors do not,
  /// which is what makes "insertion packets" possible (§7).
  [[nodiscard]] bool tcp_checksum_valid() const;
  [[nodiscard]] bool ip_checksum_valid() const;

  /// One-line human-readable form, e.g.
  ///   "10.0.0.2:443 > 10.0.0.1:3822 [SA] seq=1000 ack=2001 win=65535 len=0".
  [[nodiscard]] std::string summary() const;
};

/// Convenience factory for a bare TCP packet between two endpoints.
[[nodiscard]] Packet make_tcp_packet(Ipv4Address src, std::uint16_t sport,
                                     Ipv4Address dst, std::uint16_t dport,
                                     std::uint8_t flags, std::uint32_t seq,
                                     std::uint32_t ack, Bytes payload = {});

}  // namespace caya
