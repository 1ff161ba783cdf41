#include "packet/packet.h"

#include <sstream>
#include <stdexcept>

#include "util/arena.h"

namespace caya {

std::uint32_t Packet::sequence_length() const noexcept {
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  if (has_flag(tcp.flags, tcpflag::kSyn)) ++len;
  if (has_flag(tcp.flags, tcpflag::kFin)) ++len;
  return len;
}

void Packet::serialize_into(Bytes& out) const {
  // The TCP segment is a transient: leased from this thread's arena and
  // returned at scope end, so steady-state serialization touches only `out`.
  BufferArena::Scoped segment;
  tcp.serialize_into(*segment, ip.src, ip.dst, payload,
                     !tcp_checksum_overridden, !tcp_offset_overridden);
  out.clear();
  out.reserve(20 + segment->size());  // exact: one allocation at most
  ip.serialize_into(out, static_cast<std::uint16_t>(segment->size()),
                    !ip_checksum_overridden, !ip_length_overridden);
  out.insert(out.end(), segment->begin(), segment->end());
}

Bytes Packet::serialize() const {
  Bytes wire;
  serialize_into(wire);
  return wire;
}

DecodeResult<Packet> Packet::try_parse(std::span<const std::uint8_t> wire) {
  using R = DecodeResult<Packet>;
  auto ip = Ipv4Header::try_parse(wire);
  if (!ip.ok()) return R::failure(ip.error, ip.error_offset);
  auto segment = wire.subspan(ip.consumed);
  auto tcp = TcpHeader::try_parse(segment);
  if (!tcp.ok()) return R::failure(tcp.error, ip.consumed + tcp.error_offset);
  R out;
  out.value.ip = ip.value;
  out.value.tcp = std::move(tcp.value);
  out.value.payload.assign(
      segment.begin() + static_cast<std::ptrdiff_t>(tcp.consumed),
      segment.end());
  // Keep the on-wire checksums: a parsed packet re-serializes byte-for-byte.
  out.value.ip_checksum_overridden = true;
  out.value.tcp_checksum_overridden = true;
  out.consumed = wire.size();
  return out;
}

Packet Packet::parse(std::span<const std::uint8_t> wire) {
  auto result = try_parse(wire);
  switch (result.error) {
    case DecodeError::kNone:
      return std::move(result.value);
    case DecodeError::kBadVersion:
      throw std::invalid_argument("not an IPv4 packet");
    case DecodeError::kBadHeaderLength:
      throw std::invalid_argument("bad header length at offset " +
                                  std::to_string(result.error_offset));
    case DecodeError::kOptionOverrun:
      throw std::invalid_argument("malformed TCP option at offset " +
                                  std::to_string(result.error_offset));
    default:
      throw ShortReadError("short read: truncated packet at offset " +
                           std::to_string(result.error_offset));
  }
}

std::uint16_t Packet::computed_tcp_checksum() const {
  BufferArena::Scoped segment;
  tcp.serialize_into(*segment, ip.src, ip.dst, payload,
                     /*compute_checksum=*/true, !tcp_offset_overridden);
  return static_cast<std::uint16_t>((*segment)[16] << 8 | (*segment)[17]);
}

bool Packet::tcp_checksum_valid() const {
  if (!tcp_checksum_overridden) return true;
  return computed_tcp_checksum() == tcp.checksum;
}

bool Packet::ip_checksum_valid() const {
  if (!ip_checksum_overridden) return true;
  // The segment length is all the IP header needs from the TCP layer; an
  // options pass measures it without serializing the whole segment.
  const std::size_t segment_len =
      tcp.computed_header_length() + payload.size();
  BufferArena::Scoped hdr;
  ip.serialize_into(*hdr, static_cast<std::uint16_t>(segment_len),
                    /*compute_checksum=*/true, !ip_length_overridden);
  const auto computed =
      static_cast<std::uint16_t>((*hdr)[10] << 8 | (*hdr)[11]);
  return computed == ip.checksum;
}

std::string Packet::summary() const {
  std::ostringstream os;
  os << ip.src.to_string() << ":" << tcp.sport << " > " << ip.dst.to_string()
     << ":" << tcp.dport << " [" << flags_to_string(tcp.flags) << "] seq="
     << tcp.seq << " ack=" << tcp.ack << " win=" << tcp.window
     << " len=" << payload.size();
  if (ip.ttl != 64) os << " ttl=" << static_cast<int>(ip.ttl);
  return os.str();
}

Packet make_tcp_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                       std::uint16_t dport, std::uint8_t flags,
                       std::uint32_t seq, std::uint32_t ack, Bytes payload) {
  Packet pkt;
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.tcp.sport = sport;
  pkt.tcp.dport = dport;
  pkt.tcp.flags = flags;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = ack;
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace caya
