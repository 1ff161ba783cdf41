#include "packet/tcp.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/arena.h"
#include "util/checksum.h"

namespace caya {

const TcpOption* TcpHeader::find_option(std::uint8_t kind) const noexcept {
  for (const auto& opt : options) {
    if (opt.kind == kind) return &opt;
  }
  return nullptr;
}

std::size_t TcpHeader::remove_option(std::uint8_t kind) {
  const auto before = options.size();
  std::erase_if(options, [kind](const TcpOption& o) { return o.kind == kind; });
  return before - options.size();
}

void TcpHeader::set_option(std::uint8_t kind, Bytes data) {
  for (auto& opt : options) {
    if (opt.kind == kind) {
      opt.data = std::move(data);
      return;
    }
  }
  options.push_back(TcpOption{kind, std::move(data)});
}

std::optional<std::uint8_t> TcpHeader::window_scale() const noexcept {
  const TcpOption* opt = find_option(TcpOption::kWindowScale);
  if (opt == nullptr || opt->data.size() != 1) return std::nullopt;
  return opt->data[0];
}

std::optional<std::uint16_t> TcpHeader::mss() const noexcept {
  const TcpOption* opt = find_option(TcpOption::kMss);
  if (opt == nullptr || opt->data.size() != 2) return std::nullopt;
  return static_cast<std::uint16_t>(opt->data[0] << 8 | opt->data[1]);
}

void TcpHeader::serialize_options_into(Bytes& out) const {
  ByteWriter w(std::move(out));
  for (const auto& opt : options) {
    if (opt.kind == TcpOption::kEndOfOptions || opt.kind == TcpOption::kNop) {
      w.u8(opt.kind);
      continue;
    }
    w.u8(opt.kind);
    w.u8(static_cast<std::uint8_t>(2 + opt.data.size()));
    w.raw(opt.data);
  }
  out = w.take();
  while (out.size() % 4 != 0) out.push_back(TcpOption::kNop);
}

Bytes TcpHeader::serialize_options() const {
  Bytes out;
  serialize_options_into(out);
  return out;
}

std::size_t TcpHeader::computed_header_length() const {
  BufferArena::Scoped opts;
  serialize_options_into(*opts);
  return 20 + opts->size();
}

void TcpHeader::serialize_into(Bytes& out, Ipv4Address src, Ipv4Address dst,
                               std::span<const std::uint8_t> payload,
                               bool compute_checksum,
                               bool compute_offset) const {
  BufferArena::Scoped opts;
  serialize_options_into(*opts);
  const std::uint8_t offset_words =
      compute_offset ? static_cast<std::uint8_t>((20 + opts->size()) / 4)
                     : data_offset;

  ByteWriter w(std::move(out));
  w.reserve(20 + opts->size() + payload.size());
  w.u16(sport);
  w.u16(dport);
  w.u32(seq);
  w.u32(ack);
  w.u8(static_cast<std::uint8_t>(offset_words << 4));
  w.u8(flags);
  w.u16(window);
  w.u16(0);  // checksum placeholder
  w.u16(urgent_pointer);
  w.raw(*opts);
  w.raw(payload);

  out = w.take();
  const std::uint16_t csum =
      compute_checksum ? tcp_checksum(src, dst, out) : checksum;
  out[16] = static_cast<std::uint8_t>(csum >> 8);
  out[17] = static_cast<std::uint8_t>(csum & 0xff);
}

Bytes TcpHeader::serialize(Ipv4Address src, Ipv4Address dst,
                           std::span<const std::uint8_t> payload,
                           bool compute_checksum, bool compute_offset) const {
  Bytes out;
  serialize_into(out, src, dst, payload, compute_checksum, compute_offset);
  return out;
}

DecodeResult<TcpHeader> TcpHeader::try_parse(
    std::span<const std::uint8_t> data) {
  using R = DecodeResult<TcpHeader>;
  DecodeCursor c(data);
  TcpHeader h;
  std::uint8_t off = 0;
  if (!c.u16(h.sport) || !c.u16(h.dport) || !c.u32(h.seq) || !c.u32(h.ack) ||
      !c.u8(off) || !c.u8(h.flags) || !c.u16(h.window) || !c.u16(h.checksum) ||
      !c.u16(h.urgent_pointer)) {
    return R::failure(DecodeError::kTruncated, c.pos());
  }
  h.data_offset = off >> 4;
  if (h.data_offset < 5) return R::failure(DecodeError::kBadHeaderLength, 12);

  // Truncation inside the option region is a header-length lie when the
  // declared offset runs past the buffer; classify it as such.
  const std::size_t header_len = static_cast<std::size_t>(h.data_offset) * 4;
  const DecodeError on_short = header_len > data.size()
                                   ? DecodeError::kHeaderOffsetOverflow
                                   : DecodeError::kTruncated;
  std::size_t opt_remaining = header_len - 20;
  while (opt_remaining > 0) {
    std::uint8_t kind = 0;
    if (!c.u8(kind)) return R::failure(on_short, c.pos());
    --opt_remaining;
    if (kind == TcpOption::kEndOfOptions) {
      if (!c.skip(opt_remaining)) return R::failure(on_short, c.pos());
      opt_remaining = 0;
      break;
    }
    if (kind == TcpOption::kNop) continue;
    if (opt_remaining == 0) {
      return R::failure(DecodeError::kOptionOverrun, c.pos() - 1);
    }
    std::uint8_t len = 0;
    if (!c.u8(len)) return R::failure(on_short, c.pos());
    --opt_remaining;
    if (len < 2 || static_cast<std::size_t>(len - 2) > opt_remaining) {
      return R::failure(DecodeError::kOptionOverrun, c.pos() - 1);
    }
    std::span<const std::uint8_t> value;
    if (!c.bytes(static_cast<std::size_t>(len - 2), value)) {
      return R::failure(on_short, c.pos());
    }
    opt_remaining -= static_cast<std::size_t>(len - 2);
    TcpOption opt;
    opt.kind = kind;
    opt.data.assign(value.begin(), value.end());
    h.options.push_back(std::move(opt));
  }
  R out;
  out.value = std::move(h);
  out.consumed = header_len;
  return out;
}

TcpHeader TcpHeader::parse(std::span<const std::uint8_t> data,
                           std::size_t& consumed) {
  auto result = try_parse(data);
  switch (result.error) {
    case DecodeError::kNone:
      consumed = result.consumed;
      return std::move(result.value);
    case DecodeError::kBadHeaderLength:
      throw std::invalid_argument("TCP data offset < 5");
    case DecodeError::kOptionOverrun:
      throw std::invalid_argument("malformed TCP option at offset " +
                                  std::to_string(result.error_offset));
    default:
      throw ShortReadError("short read: truncated TCP header at offset " +
                           std::to_string(result.error_offset));
  }
}

std::uint16_t tcp_checksum(Ipv4Address src, Ipv4Address dst,
                           std::span<const std::uint8_t> segment) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(6);  // zero byte + protocol (TCP)
  acc.add_u16(static_cast<std::uint16_t>(segment.size()));
  acc.add(segment);
  return acc.finish();
}

}  // namespace caya
