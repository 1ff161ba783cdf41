// DNS wire codec for DNS-over-TCP (RFC 1035 §4.2.2): each message carries a
// two-byte length prefix on the TCP stream.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "packet/decode.h"
#include "packet/ipv4.h"
#include "util/bytes.h"

namespace caya {

/// A name in dotted form, held inline: RFC 1035 §2.3.4 caps a name at 255
/// octets, so decoding one never allocates.
class DnsName {
 public:
  static constexpr std::size_t kMaxLength = 255;

  DnsName() = default;
  /// Throws std::length_error past kMaxLength.
  DnsName(std::string_view text);  // NOLINT(google-explicit-constructor)
  // NOLINTNEXTLINE(google-explicit-constructor)
  DnsName(const char* text) : DnsName(std::string_view(text)) {}

  [[nodiscard]] std::string_view view() const noexcept {
    return {text_.data(), size_};
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::string_view() const noexcept { return view(); }

  /// Appends one label, dot-separated from the last; false, changing
  /// nothing, when the name would pass kMaxLength.
  bool append_label(std::span<const std::uint8_t> label) noexcept;
  void clear() noexcept { size_ = 0; }

  friend bool operator==(const DnsName& a, std::string_view b) noexcept {
    return a.view() == b;
  }

 private:
  std::array<char, kMaxLength> text_{};
  std::size_t size_ = 0;
};

struct DnsQuery {
  std::uint16_t id = 0;
  std::string_view qname;  // e.g. "www.wikipedia.org"
};

struct DnsResponse {
  std::uint16_t id = 0;
  DnsName qname;
  Ipv4Address address;  // single A record
};

/// Length-prefixed A-record query message, in one exactly reserved buffer.
[[nodiscard]] Bytes build_dns_query(const DnsQuery& query);

/// Length-prefixed response echoing the question plus one A record,
/// written into `out` (cleared first, capacity kept), so a server can
/// answer into a leased buffer.
void build_dns_response_into(Bytes& out, const DnsResponse& response);

/// Compression-pointer (RFC 1035 §4.1.4) jump budget: following more than
/// this many pointers while decoding one name is reported as kPointerLoop.
/// Real messages need at most a handful; loops and pointer-into-pointer
/// chains crafted to pin the parser blow through it immediately.
inline constexpr int kDnsPointerJumpBudget = 16;

/// Non-throwing QNAME extraction from a length-prefixed DNS message at the
/// start of `stream`. Decodes compressed names with a bounded jump budget:
/// kTruncated (short header/label), kBadLength (length prefix or pointer
/// target lying about the buffer), kBadLabel (reserved label tag or a name
/// over 255 octets), kPointerLoop (jump budget exhausted).
[[nodiscard]] DecodeResult<DnsName> try_parse_dns_qname(
    std::span<const std::uint8_t> stream);

/// Non-throwing response parse; semantically foreign messages (not a
/// response, no answer, non-A RDATA) are reported as kBadRecord.
[[nodiscard]] DecodeResult<DnsResponse> try_parse_dns_response(
    std::span<const std::uint8_t> stream);

/// Extracts the QNAME from a length-prefixed DNS message at the start of
/// `stream`. Returns nullopt when the message is truncated or malformed.
/// Implemented over try_parse_dns_qname.
[[nodiscard]] std::optional<std::string> parse_dns_qname(
    std::span<const std::uint8_t> stream);

/// Parses a complete length-prefixed response; nullopt if incomplete.
/// Implemented over try_parse_dns_response.
[[nodiscard]] std::optional<DnsResponse> parse_dns_response(
    std::span<const std::uint8_t> stream);

}  // namespace caya
