#include "censor/dpi.h"

#include <gtest/gtest.h>

#include <string_view>

#include "packet/dns.h"
#include "apps/tls.h"

namespace caya {
namespace {

ForbiddenContent china() {
  return {};  // defaults: ultrasurf / wikipedia / xiazai@upup8.com
}

ForbiddenContent host_based() {
  ForbiddenContent content;
  content.blocked_hosts = {"youtube.com"};
  content.blocked_sni = "youtube.com";
  return content;
}

TEST(Dpi, HttpKeywordInUrl) {
  EXPECT_TRUE(http_keyword_match(
      to_bytes("GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n"), china()));
  EXPECT_FALSE(http_keyword_match(
      to_bytes("GET /?q=weather HTTP/1.1\r\nHost: x\r\n\r\n"), china()));
}

TEST(Dpi, HttpKeywordRequiresRequestStart) {
  // A mid-stream segment containing the keyword is not a request.
  EXPECT_FALSE(
      http_keyword_match(to_bytes("rasurf HTTP/1.1\r\n\r\n"), china()));
  EXPECT_FALSE(http_keyword_match(to_bytes("?q=ultrasurf"), china()));
}

TEST(Dpi, HttpKeywordOnlyInRequestLine) {
  // Keyword in a later header does not trigger the URL-keyword censor.
  EXPECT_FALSE(http_keyword_match(
      to_bytes("GET / HTTP/1.1\r\nX-Note: ultrasurf\r\n\r\n"), china()));
}

TEST(Dpi, HostHeaderMatch) {
  EXPECT_TRUE(http_host_match(
      to_bytes("GET / HTTP/1.1\r\nHost: youtube.com\r\n\r\n"), host_based()));
  EXPECT_FALSE(http_host_match(
      to_bytes("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"), host_based()));
  // Host in a packet that does not start a request: stateless DPI misses it.
  EXPECT_FALSE(http_host_match(to_bytes("Host: youtube.com\r\n\r\n"),
                               host_based()));
}

TEST(Dpi, SniMatch) {
  EXPECT_TRUE(sni_match(build_client_hello("youtube.com"), host_based()));
  EXPECT_FALSE(sni_match(build_client_hello("vimeo.com"), host_based()));
  // Truncated hello (segmented) never matches.
  const Bytes hello = build_client_hello("youtube.com");
  Bytes half(hello.begin(), hello.begin() + static_cast<long>(hello.size() / 2));
  EXPECT_FALSE(sni_match(half, host_based()));
}

TEST(Dpi, DnsMatch) {
  EXPECT_TRUE(dns_match(
      build_dns_query({.id = 1, .qname = "www.wikipedia.org"}), china()));
  EXPECT_FALSE(dns_match(
      build_dns_query({.id = 1, .qname = "www.example.org"}), china()));
}

TEST(Dpi, FtpMatchOnRetrLine) {
  EXPECT_TRUE(ftp_match(to_bytes("RETR ultrasurf\r\n"), china()));
  EXPECT_TRUE(ftp_match(
      to_bytes("USER anonymous\r\nPASS guest\r\nRETR ultrasurf\r\n"),
      china()));
  EXPECT_FALSE(ftp_match(to_bytes("RETR weather.txt\r\n"), china()));
  // Keyword on a non-RETR line is not a file request.
  EXPECT_FALSE(ftp_match(to_bytes("USER ultrasurf\r\n"), china()));
  // Segmented RETR never matches a single segment.
  EXPECT_FALSE(ftp_match(to_bytes("RETR ultra"), china()));
}

TEST(Dpi, SmtpMatchOnRcptLine) {
  EXPECT_TRUE(
      smtp_match(to_bytes("RCPT TO:<xiazai@upup8.com>\r\n"), china()));
  EXPECT_FALSE(
      smtp_match(to_bytes("RCPT TO:<friend@example.com>\r\n"), china()));
  EXPECT_FALSE(
      smtp_match(to_bytes("MAIL FROM:<xiazai@upup8.com>\r\n"), china()));
}

/// One input run through every text matcher. The expected values were
/// captured on the string-copying matchers, so a rewrite must reproduce
/// their line and prefix handling exactly.
struct TextRow {
  const char* name;
  std::string_view input;
  bool keyword;  // http_keyword_match, China content
  bool host;     // http_host_match, youtube.com blocked
  bool ftp;
  bool smtp;
};

TEST(Dpi, TextMatchersEdgeRows) {
  const TextRow rows[] = {
      {"keyword split by CRLF", "GET /?q=ultra\r\nsurf HTTP/1.1\r\n\r\n",
       false, false, false, false},
      {"host split by CRLF", "GET / HTTP/1.1\r\nHost: you\r\ntube.com\r\n",
       false, false, false, false},
      {"RETR split by CRLF", "RETR ultra\r\nsurf\r\n", false, false, false,
       false},
      {"RCPT split by CRLF", "RCPT TO:<xiazai@\r\nupup8.com>\r\n", false,
       false, false, false},
      {"bare LF ends the request line", "GET /?q=ultrasurf\nHost: x\r\n\r\n",
       true, false, false, false},
      {"bare LF hides the keyword", "GET / HTTP/1.1\nX: ultrasurf\r\n\r\n",
       false, false, false, false},
      {"bare LF inside a RETR line", "RETR x\nultrasurf\r\n", false, false,
       true, false},
      {"bare LF before RETR", "USER a\nRETR ultrasurf\r\n", false, false,
       false, false},
      {"bare LF inside a RCPT line", "RCPT TO:<a>\nxiazai@upup8.com\r\n",
       false, false, false, true},
      {"last request line without CRLF", "GET /?q=ultrasurf", true, false,
       false, false},
      {"last RETR line without CRLF", "USER a\r\nRETR ultrasurf", false,
       false, true, false},
      {"last RCPT line without CRLF", "HELO a\r\nRCPT TO:<xiazai@upup8.com>",
       false, false, false, true},
      {"lone CR at the end", "RETR ultrasurf\r", false, false, true, false},
      {"repeated Host header",
       "GET / HTTP/1.1\r\nHost: example.com\r\nHost: youtube.com\r\n\r\n",
       false, true, false, false},
      {"Host: twice on one line",
       "GET / HTTP/1.1\r\nHost: Host: youtube.com\r\n\r\n", false, true,
       false, false},
      {"Host in a later header's value",
       "POST / HTTP/1.1\r\nX-Host: youtube.com\r\n\r\n", false, true, false,
       false},
      {"shorter than GET", "GET", false, false, false, false},
      {"shorter than RETR", "RET", false, false, false, false},
      {"empty input", "", false, false, false, false},
      {"empty lines first", "\r\n\r\nRETR ultrasurf\r\n", false, false, true,
       false},
  };
  for (const TextRow& row : rows) {
    const Bytes input = to_bytes(row.input);
    EXPECT_EQ(http_keyword_match(input, china()), row.keyword) << row.name;
    EXPECT_EQ(http_host_match(input, host_based()), row.host) << row.name;
    EXPECT_EQ(ftp_match(input, china()), row.ftp) << row.name;
    EXPECT_EQ(smtp_match(input, china()), row.smtp) << row.name;
    // Text is never a ClientHello or a DNS query.
    EXPECT_FALSE(sni_match(input, china())) << row.name;
    EXPECT_FALSE(dns_match(input, china())) << row.name;
  }
}

TEST(Dpi, NameMatchersOnShortAndPrefixedInput) {
  const Bytes query = build_dns_query({.id = 1, .qname = "www.wikipedia.org"});
  const Bytes hello = build_client_hello("www.wikipedia.org");
  for (std::size_t n = 0; n < query.size(); ++n) {
    EXPECT_FALSE(dns_match(std::span(query).first(n), china())) << n;
  }
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_FALSE(sni_match(std::span(hello).first(n), china())) << n;
  }
  // A blocked name's proper prefix or extension is a different name.
  EXPECT_FALSE(dns_match(build_dns_query({.id = 1, .qname = "www.wikipedia.or"}),
                         china()));
  EXPECT_FALSE(dns_match(
      build_dns_query({.id = 1, .qname = "www.wikipedia.org.cn"}), china()));
  EXPECT_FALSE(sni_match(build_client_hello("wikipedia.org"), china()));
  EXPECT_FALSE(sni_match(build_client_hello("www.wikipedia.org.cn"), china()));
  // A compressed QNAME decodes to the blocked name and matches.
  // The question is "www.wikipedia" plus a pointer to a trailing "org".
  const Bytes plain = build_dns_query({.id = 1, .qname = "org"});
  Bytes msg(plain.begin() + 2, plain.begin() + 2 + 12);  // the header
  for (std::string_view label : {"www", "wikipedia"}) {
    msg.push_back(static_cast<std::uint8_t>(label.size()));
    msg.insert(msg.end(), label.begin(), label.end());
  }
  const std::size_t pointer_at = msg.size();
  msg.push_back(0xc0);
  msg.push_back(0);  // patched below
  msg.insert(msg.end(), {0, 1, 0, 1});
  msg[pointer_at + 1] = static_cast<std::uint8_t>(msg.size());
  msg.insert(msg.end(), {3, 'o', 'r', 'g', 0});
  Bytes framed = {static_cast<std::uint8_t>(msg.size() >> 8),
                  static_cast<std::uint8_t>(msg.size() & 0xff)};
  framed.insert(framed.end(), msg.begin(), msg.end());
  EXPECT_TRUE(dns_match(framed, china()));
}

TEST(Dpi, ProtocolDispatch) {
  EXPECT_TRUE(protocol_match(AppProtocol::kHttp,
                             to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n\r\n"),
                             china()));
  EXPECT_FALSE(protocol_match(AppProtocol::kSmtp,
                              to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n\r\n"),
                              china()));
  EXPECT_TRUE(protocol_match(AppProtocol::kHttps,
                             build_client_hello("www.wikipedia.org"),
                             china()));
}

}  // namespace
}  // namespace caya
