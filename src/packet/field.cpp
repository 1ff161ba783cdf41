#include "packet/field.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>
#include <type_traits>

#include "packet/dns.h"
#include "util/arena.h"

namespace caya {

namespace {

using enum Proto;
using enum FieldForm;

struct Access {
  std::optional<std::uint64_t> (*get)(const Packet&);
  void (*set)(Packet&, std::uint64_t);
};

std::uint64_t widen(std::uint64_t v) { return v; }
std::uint64_t widen(Ipv4Address a) { return a.value(); }

/// Reads and writes the header member `(pkt.*kHeader).*kMember`; a write
/// keeps the low bits the member holds.
template <auto kHeader, auto kMember>
constexpr Access kMemberAccess = {
    [](const Packet& pkt) -> std::optional<std::uint64_t> {
      return widen((pkt.*kHeader).*kMember);
    },
    [](Packet& pkt, std::uint64_t value) {
      auto& member = (pkt.*kHeader).*kMember;
      member = std::remove_reference_t<decltype(member)>(value);
    }};

template <auto kMember>
constexpr Access kIpAccess = kMemberAccess<&Packet::ip, kMember>;
template <auto kMember>
constexpr Access kTcpAccess = kMemberAccess<&Packet::tcp, kMember>;

std::optional<std::uint64_t> dns_id(const Packet& pkt) {
  // Length prefix (2) + header starts with the ID.
  if (pkt.payload.size() < 4) return std::nullopt;
  return std::uint64_t{pkt.payload[2]} << 8 | pkt.payload[3];
}

constexpr Access kDnsIdAccess = {
    dns_id, [](Packet& pkt, std::uint64_t value) {
      // Lenient by design: a payload that is not a DNS query is left alone.
      if (!dns_id(pkt)) return;
      const auto id = static_cast<std::uint16_t>(value);
      Bytes& raw = pkt.payload.mutate();
      raw[2] = static_cast<std::uint8_t>(id >> 8);
      raw[3] = static_cast<std::uint8_t>(id & 0xff);
    }};

constexpr Field row(Proto proto, std::string_view name, FieldForm form,
                    unsigned width, Access access,
                    bool Packet::*pin = nullptr) {
  return {proto, name, form, width, pin, 0, access.get, access.set};
}

/// An option's value bytes read as one big-endian integer.
template <std::uint8_t kKind>
std::optional<std::uint64_t> option_value(const Packet& pkt) {
  const TcpOption* opt = pkt.tcp.find_option(kKind);
  if (opt == nullptr) return std::nullopt;
  std::uint64_t v = 0;
  for (std::uint8_t b : opt->data) v = v << 8 | b;
  return v;
}

template <std::uint8_t kKind>
constexpr Field option_row(std::string_view name, unsigned bytes) {
  return {kTcp, name, kOption, 8 * bytes, nullptr, kKind, option_value<kKind>,
          nullptr};
}

constexpr Field text_row(Proto proto, std::string_view name, FieldForm form) {
  return {proto, name, form, 0, nullptr, 0, nullptr, nullptr};
}

// Every field Geneva can name, grouped by protocol.
constexpr std::array kFields = {
    row(kIp, "version", kDecimal, 8, kIpAccess<&Ipv4Header::version>),
    row(kIp, "ihl", kDecimal, 4, kIpAccess<&Ipv4Header::ihl>),
    row(kIp, "tos", kDecimal, 8, kIpAccess<&Ipv4Header::tos>),
    row(kIp, "len", kDecimal, 16, kIpAccess<&Ipv4Header::total_length>,
        &Packet::ip_length_overridden),
    row(kIp, "id", kDecimal, 16, kIpAccess<&Ipv4Header::id>),
    row(kIp, "flags", kDecimal, 8, kIpAccess<&Ipv4Header::flags>),
    row(kIp, "frag", kDecimal, 16, kIpAccess<&Ipv4Header::frag_offset>),
    row(kIp, "ttl", kDecimal, 8, kIpAccess<&Ipv4Header::ttl>),
    row(kIp, "proto", kDecimal, 8, kIpAccess<&Ipv4Header::protocol>),
    row(kIp, "chksum", kDecimal, 16, kIpAccess<&Ipv4Header::checksum>,
        &Packet::ip_checksum_overridden),
    row(kIp, "src", kAddress, 32, kIpAccess<&Ipv4Header::src>),
    row(kIp, "dst", kAddress, 32, kIpAccess<&Ipv4Header::dst>),
    text_row(kIp, "load", kBytes),
    row(kTcp, "sport", kDecimal, 16, kTcpAccess<&TcpHeader::sport>),
    row(kTcp, "dport", kDecimal, 16, kTcpAccess<&TcpHeader::dport>),
    row(kTcp, "seq", kDecimal, 32, kTcpAccess<&TcpHeader::seq>),
    row(kTcp, "ack", kDecimal, 32, kTcpAccess<&TcpHeader::ack>),
    row(kTcp, "dataofs", kDecimal, 4, kTcpAccess<&TcpHeader::data_offset>,
        &Packet::tcp_offset_overridden),
    row(kTcp, "flags", kFlags, 8, kTcpAccess<&TcpHeader::flags>),
    row(kTcp, "window", kDecimal, 16, kTcpAccess<&TcpHeader::window>),
    row(kTcp, "chksum", kDecimal, 16, kTcpAccess<&TcpHeader::checksum>,
        &Packet::tcp_checksum_overridden),
    row(kTcp, "urgptr", kDecimal, 16, kTcpAccess<&TcpHeader::urgent_pointer>),
    text_row(kTcp, "load", kBytes),
    option_row<TcpOption::kWindowScale>("options-wscale", 1),
    option_row<TcpOption::kMss>("options-mss", 2),
    option_row<TcpOption::kSackPermitted>("options-sackok", 0),
    option_row<TcpOption::kTimestamps>("options-timestamp", 8),
    row(kDns, "id", kDecimal, 16, kDnsIdAccess),
    text_row(kDns, "qname", kDnsName),
};
static_assert(std::ranges::is_sorted(kFields, {}, &Field::proto));

[[noreturn]] void reject_number(const Field& field, const std::string& problem,
                               std::string_view s) {
  throw std::invalid_argument(problem + " for " +
                              std::string(to_string(field.proto)) + ":" +
                              std::string(field.name) + ": " + std::string(s));
}

std::uint64_t parse_number(const Field& field, std::string_view s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    reject_number(field, "bad numeric value", s);
  }
  // A width-0 option (SACK-permitted) has no value bytes: its number only
  // means "present", so any value is accepted.
  if (field.width > 0 && field.width < 64 && v >> field.width != 0) {
    reject_number(field,
                  "value out of " + std::to_string(field.width) + "-bit range",
                  s);
  }
  return v;
}

/// Writes an integer-valued field (kDecimal, kFlags, kAddress), pinning it
/// against recomputation where the row says so.
void store(Packet& pkt, const Field& field, std::uint64_t value) {
  field.set(pkt, value);
  if (field.pin != nullptr) pkt.*field.pin = true;
}

void set_qname(Packet& pkt, const std::string& qname) {
  const auto id = dns_id(pkt);
  if (id && parse_dns_qname(std::span(pkt.payload))) {
    pkt.payload = build_dns_query(
        {.id = static_cast<std::uint16_t>(*id), .qname = qname});
  }
}

}  // namespace

std::string_view to_string(Proto proto) noexcept {
  switch (proto) {
    case Proto::kIp:
      return "IP";
    case Proto::kTcp:
      return "TCP";
    case Proto::kDns:
      return "DNS";
  }
  return "?";
}

Proto proto_from_string(std::string_view s) {
  for (const Proto proto : {kIp, kTcp, kDns}) {
    if (s == to_string(proto)) return proto;
  }
  throw std::invalid_argument("unknown protocol: " + std::string(s));
}

std::span<const Field> fields(Proto proto) noexcept {
  const auto rows = std::ranges::equal_range(kFields, proto, {}, &Field::proto);
  return {rows.begin(), rows.end()};
}

const Field& lookup_field(Proto proto, std::string_view name) {
  for (const Field& field : fields(proto)) {
    if (field.name == name) return field;
  }
  throw std::invalid_argument("unknown field " + std::string(to_string(proto)) +
                              ":" + std::string(name));
}

FieldValue Field::parse(std::string text) const {
  FieldValue value{.text = std::move(text)};
  switch (form) {
    case kDecimal:
      value.number = parse_number(*this, value.text);
      break;
    case kFlags:
      value.number = flags_from_string(value.text);
      break;
    case kAddress:
      value.number = Ipv4Address::parse(value.text).value();
      break;
    case kOption:
      if (!value.text.empty()) value.number = parse_number(*this, value.text);
      break;
    case kBytes:
    case kDnsName:
      break;
  }
  return value;
}

std::string Field::render(const Packet& pkt) const {
  switch (form) {
    case kBytes:
      return to_string(std::span(pkt.payload));
    case kDnsName:
      return parse_dns_qname(std::span(pkt.payload)).value_or("");
    case kOption:
    case kDecimal:
    case kFlags:
    case kAddress:
      break;
  }
  const std::optional<std::uint64_t> value = get(pkt);
  if (!value) return "";
  if (form == kFlags) {
    return flags_to_string(static_cast<std::uint8_t>(*value));
  }
  if (form == kAddress) {
    return Ipv4Address(static_cast<std::uint32_t>(*value)).to_string();
  }
  return std::to_string(*value);
}

void Field::replace(Packet& pkt, const FieldValue& value) const {
  switch (form) {
    case kBytes:
      pkt.payload.assign(byte_view(value.text));
      return;
    case kDnsName:
      set_qname(pkt, value.text);
      return;
    case kOption: {
      if (value.text.empty()) {
        pkt.tcp.remove_option(option_kind);
        return;
      }
      const std::size_t n = width / 8;
      Bytes data(n);
      for (std::size_t i = 0; i < n; ++i) {
        data[n - 1 - i] = static_cast<std::uint8_t>(value.number >> (8 * i));
      }
      pkt.tcp.set_option(option_kind, std::move(data));
      return;
    }
    case kDecimal:
    case kFlags:
    case kAddress:
      store(pkt, *this, value.number);
      return;
  }
}

void Field::corrupt(Packet& pkt, Rng& rng) const {
  // "corrupt sets the field to an equal number of random bits" (appendix).
  switch (form) {
    case kBytes: {
      const std::size_t n =
          pkt.payload.empty() ? 4 + rng.index(12) : pkt.payload.size();
      Bytes random = BufferArena::local().acquire();
      random.resize(n);
      rng.fill(random);
      pkt.payload = std::move(random);
      return;
    }
    case kDnsName:
      set_qname(pkt, to_hex(rng.bytes(8)) + ".example");
      return;
    case kOption:
      pkt.tcp.set_option(option_kind, rng.bytes(width / 8));
      return;
    case kDecimal:
    case kFlags:
    case kAddress:
      store(pkt, *this, rng.uniform(0, (std::uint64_t{1} << width) - 1));
      return;
  }
}

}  // namespace caya
