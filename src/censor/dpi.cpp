#include "censor/dpi.h"

#include "packet/dns.h"
#include "apps/tls.h"

namespace caya {

namespace {

bool is_request_start(std::string_view text) {
  return text.starts_with("GET ") || text.starts_with("POST ");
}

/// True when some CRLF-delimited line of `text` (the last may lack its CRLF)
/// starts with `command` and contains `needle`.
bool command_line_match(std::string_view text, std::string_view command,
                        std::string_view needle) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    if (line.starts_with(command) && line.find(needle) != line.npos) {
      return true;
    }
    pos = eol + 2;
  }
  return false;
}

}  // namespace

bool http_keyword_match(std::span<const std::uint8_t> data,
                        const ForbiddenContent& content) {
  const std::string_view text = text_view(data);
  if (!is_request_start(text)) return false;
  // The request line ends at the first CR or LF.
  const std::string_view request_line =
      text.substr(0, text.find_first_of("\r\n"));
  return request_line.find(content.http_keyword) != std::string_view::npos;
}

bool http_host_match(std::span<const std::uint8_t> data,
                     const ForbiddenContent& content) {
  const std::string_view text = text_view(data);
  if (!is_request_start(text)) return false;
  constexpr std::string_view kHost = "Host: ";
  for (const auto& host : content.blocked_hosts) {
    for (std::size_t at = text.find(kHost); at != std::string_view::npos;
         at = text.find(kHost, at + 1)) {
      if (text.substr(at + kHost.size()).starts_with(host)) return true;
    }
  }
  return false;
}

bool sni_match(std::span<const std::uint8_t> data,
               const ForbiddenContent& content) {
  const auto sni = parse_sni(data);
  return sni.has_value() && *sni == content.blocked_sni;
}

bool dns_match(std::span<const std::uint8_t> data,
               const ForbiddenContent& content) {
  const auto qname = try_parse_dns_qname(data);
  return qname.ok() && qname.value == content.blocked_qname;
}

bool ftp_match(std::span<const std::uint8_t> data,
               const ForbiddenContent& content) {
  // Scan each complete line for a RETR carrying the keyword.
  return command_line_match(text_view(data), "RETR ", content.ftp_keyword);
}

bool smtp_match(std::span<const std::uint8_t> data,
                const ForbiddenContent& content) {
  return command_line_match(text_view(data), "RCPT TO:",
                            content.smtp_recipient);
}

bool protocol_match(AppProtocol proto, std::span<const std::uint8_t> data,
                    const ForbiddenContent& content) {
  switch (proto) {
    case AppProtocol::kDnsOverTcp:
      return dns_match(data, content);
    case AppProtocol::kFtp:
      return ftp_match(data, content);
    case AppProtocol::kHttp:
      return http_keyword_match(data, content);
    case AppProtocol::kHttps:
      return sni_match(data, content);
    case AppProtocol::kSmtp:
      return smtp_match(data, content);
  }
  return false;
}

}  // namespace caya
