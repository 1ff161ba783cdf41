#include "packet/dns.h"

#include <algorithm>
#include <stdexcept>

namespace caya {

DnsName::DnsName(std::string_view text) {
  if (text.size() > kMaxLength) {
    throw std::length_error("DNS name longer than 255 octets");
  }
  text.copy(text_.data(), text.size());
  size_ = text.size();
}

bool DnsName::append_label(std::span<const std::uint8_t> label) noexcept {
  const std::size_t dot = size_ == 0 ? 0 : 1;
  if (size_ + dot + label.size() > kMaxLength) return false;
  if (dot != 0) text_[size_] = '.';
  std::copy(label.begin(), label.end(), text_.begin() + size_ + dot);
  size_ += dot + label.size();
  return true;
}

namespace {

void write_qname(ByteWriter& w, std::string_view qname) {
  std::size_t start = 0;
  while (start <= qname.size()) {
    std::size_t dot = qname.find('.', start);
    if (dot == std::string_view::npos) dot = qname.size();
    const std::size_t len = dot - start;
    w.u8(static_cast<std::uint8_t>(len));
    w.raw(qname.substr(start, len));
    start = dot + 1;
    if (dot == qname.size()) break;
  }
  w.u8(0);
}

/// Wire length of `qname` as write_qname encodes it: a length octet per
/// label plus the terminating zero.
std::size_t qname_wire_length(std::string_view qname) {
  return qname.size() + 2;
}

// Decodes a (possibly compressed) name from the message `msg` starting at
// offset `at`. On success `next` is the offset just past the name's in-place
// encoding — after the terminating zero octet, or after the first pointer's
// two bytes when one was followed. `error_offset` (relative to `msg`) is set
// on failure. Names may not exceed 255 octets (RFC 1035 §2.3.4); the cap
// also bounds the work a compression-loop payload can extract per name.
DecodeError read_name(std::span<const std::uint8_t> msg, std::size_t at,
                      DnsName& name, std::size_t& next,
                      std::size_t& error_offset) {
  name.clear();
  next = at;
  std::size_t pos = at;
  int jumps = 0;
  bool jumped = false;
  while (true) {
    if (pos >= msg.size()) {
      error_offset = pos;
      return DecodeError::kTruncated;
    }
    const std::uint8_t len = msg[pos];
    if ((len & 0xc0) == 0xc0) {
      if (pos + 2 > msg.size()) {
        error_offset = pos;
        return DecodeError::kTruncated;
      }
      if (!jumped) next = pos + 2;
      if (++jumps > kDnsPointerJumpBudget) {
        error_offset = pos;
        return DecodeError::kPointerLoop;
      }
      const std::size_t target =
          static_cast<std::size_t>(len & 0x3f) << 8 | msg[pos + 1];
      if (target >= msg.size()) {
        error_offset = pos;
        return DecodeError::kBadLength;
      }
      jumped = true;
      pos = target;
      continue;
    }
    if ((len & 0xc0) != 0) {  // reserved 01/10 tags
      error_offset = pos;
      return DecodeError::kBadLabel;
    }
    if (len == 0) {
      if (!jumped) next = pos + 1;
      return DecodeError::kNone;
    }
    if (pos + 1 + len > msg.size()) {
      error_offset = pos;
      return DecodeError::kTruncated;
    }
    if (!name.append_label(msg.subspan(pos + 1, len))) {
      error_offset = pos;
      return DecodeError::kBadLabel;
    }
    pos += 1 + len;
  }
}

// Peels the two-byte length prefix off `stream` and exposes the message
// body. kTruncated when the prefix itself is short, kBadLength when it
// promises more bytes than the stream holds.
DecodeError open_message(std::span<const std::uint8_t> stream,
                         std::span<const std::uint8_t>& msg,
                         std::size_t& error_offset) {
  if (stream.size() < 2) {
    error_offset = stream.size();
    return DecodeError::kTruncated;
  }
  const std::size_t length =
      static_cast<std::size_t>(stream[0]) << 8 | stream[1];
  if (length > stream.size() - 2) {
    error_offset = 0;
    return DecodeError::kBadLength;
  }
  msg = stream.subspan(2, length);
  return DecodeError::kNone;
}

}  // namespace

Bytes build_dns_query(const DnsQuery& query) {
  const std::size_t length = 12 + qname_wire_length(query.qname) + 4;
  ByteWriter w;
  w.reserve(2 + length);
  w.u16(static_cast<std::uint16_t>(length));  // RFC 1035 §4.2.2 prefix
  w.u16(query.id);
  w.u16(0x0100);  // flags: standard query, recursion desired
  w.u16(1);       // QDCOUNT
  w.u16(0);       // ANCOUNT
  w.u16(0);       // NSCOUNT
  w.u16(0);       // ARCOUNT
  write_qname(w, query.qname);
  w.u16(1);  // QTYPE A
  w.u16(1);  // QCLASS IN
  return w.take();
}

void build_dns_response_into(Bytes& out, const DnsResponse& response) {
  const std::size_t name = qname_wire_length(response.qname);
  const std::size_t length = 12 + name + 4 + name + 14;
  ByteWriter w(std::move(out));
  w.reserve(2 + length);
  w.u16(static_cast<std::uint16_t>(length));  // RFC 1035 §4.2.2 prefix
  w.u16(response.id);
  w.u16(0x8180);  // flags: response, recursion available
  w.u16(1);       // QDCOUNT
  w.u16(1);       // ANCOUNT
  w.u16(0);
  w.u16(0);
  write_qname(w, response.qname);
  w.u16(1);
  w.u16(1);
  // Answer: same name (uncompressed), A/IN, TTL 60, 4-byte address.
  write_qname(w, response.qname);
  w.u16(1);
  w.u16(1);
  w.u32(60);
  w.u16(4);
  w.u32(response.address.value());
  out = w.take();
}

DecodeResult<DnsName> try_parse_dns_qname(
    std::span<const std::uint8_t> stream) {
  using R = DecodeResult<DnsName>;
  std::span<const std::uint8_t> msg;
  std::size_t error_offset = 0;
  if (const DecodeError err = open_message(stream, msg, error_offset);
      err != DecodeError::kNone) {
    return R::failure(err, error_offset);
  }
  if (msg.size() < 12) {
    return R::failure(DecodeError::kTruncated, 2 + msg.size());
  }
  R out;
  std::size_t next = 0;
  if (const DecodeError err =
          read_name(msg, 12, out.value, next, error_offset);
      err != DecodeError::kNone) {
    return R::failure(err, 2 + error_offset);
  }
  out.consumed = 2 + next;
  return out;
}

DecodeResult<DnsResponse> try_parse_dns_response(
    std::span<const std::uint8_t> stream) {
  using R = DecodeResult<DnsResponse>;
  std::span<const std::uint8_t> msg;
  std::size_t error_offset = 0;
  if (const DecodeError err = open_message(stream, msg, error_offset);
      err != DecodeError::kNone) {
    return R::failure(err, error_offset);
  }
  DecodeCursor c(msg);
  R out;
  std::uint16_t flags = 0;
  std::uint16_t qdcount = 0;
  std::uint16_t ancount = 0;
  if (!c.u16(out.value.id) || !c.u16(flags) || !c.u16(qdcount) ||
      !c.u16(ancount) || !c.skip(4)) {  // NSCOUNT + ARCOUNT
    return R::failure(DecodeError::kTruncated, 2 + c.pos());
  }
  if ((flags & 0x8000) == 0) {  // not a response
    return R::failure(DecodeError::kBadRecord, 2 + 2);
  }
  std::size_t at = c.pos();
  for (int i = 0; i < qdcount; ++i) {
    if (const DecodeError err =
            read_name(msg, at, out.value.qname, at, error_offset);
        err != DecodeError::kNone) {
      return R::failure(err, 2 + error_offset);
    }
    if (at + 4 > msg.size()) {  // qtype + qclass
      return R::failure(DecodeError::kTruncated, 2 + msg.size());
    }
    at += 4;
  }
  if (ancount == 0) return R::failure(DecodeError::kBadRecord, 2 + 6);
  DnsName answer_name;
  if (const DecodeError err =
          read_name(msg, at, answer_name, at, error_offset);
      err != DecodeError::kNone) {
    return R::failure(err, 2 + error_offset);
  }
  if (at + 10 + 4 > msg.size()) {  // type, class, ttl, rdlength, A rdata
    return R::failure(DecodeError::kTruncated, 2 + msg.size());
  }
  const std::uint16_t rdlength =
      static_cast<std::uint16_t>(msg[at + 8] << 8 | msg[at + 9]);
  if (rdlength != 4) return R::failure(DecodeError::kBadRecord, 2 + at + 8);
  out.value.address =
      Ipv4Address(static_cast<std::uint32_t>(msg[at + 10]) << 24 |
                  static_cast<std::uint32_t>(msg[at + 11]) << 16 |
                  static_cast<std::uint32_t>(msg[at + 12]) << 8 |
                  static_cast<std::uint32_t>(msg[at + 13]));
  out.consumed = 2 + at + 14;
  return out;
}

std::optional<std::string> parse_dns_qname(
    std::span<const std::uint8_t> stream) {
  const auto result = try_parse_dns_qname(stream);
  if (!result.ok()) return std::nullopt;
  return std::string(result.value.view());
}

std::optional<DnsResponse> parse_dns_response(
    std::span<const std::uint8_t> stream) {
  auto result = try_parse_dns_response(stream);
  if (!result.ok()) return std::nullopt;
  return std::move(result.value);
}

}  // namespace caya
