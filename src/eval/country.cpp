#include "eval/country.h"

#include <array>

#include "apps/ftp.h"
#include "apps/smtp.h"
#include "apps/tls.h"

namespace caya {

ForbiddenContent forbidden_content(Country country) {
  ForbiddenContent content;
  switch (country) {
    case Country::kChina:
      content.http_keyword = "ultrasurf";
      content.blocked_sni = "www.wikipedia.org";
      content.blocked_qname = "www.wikipedia.org";
      content.ftp_keyword = "ultrasurf";
      content.smtp_recipient = "xiazai@upup8.com";
      break;
    case Country::kIndia:
      content.blocked_hosts = {"blocked-site.in"};
      break;
    case Country::kIran:
      content.blocked_hosts = {"youtube.com"};
      content.blocked_sni = "youtube.com";
      break;
    case Country::kKazakhstan:
      content.blocked_hosts = {"blocked-site.kz"};
      break;
    case Country::kTurkmenistan:
      // Nourin et al.: the TMCell blocklist covers hostnames in both the
      // HTTP Host header and the TLS SNI (same list, both ports).
      content.blocked_hosts = {"blocked-site.tm"};
      content.blocked_sni = "blocked-site.tm";
      break;
  }
  return content;
}

ClientRequest client_request(Country country) {
  ClientRequest req;
  switch (country) {
    case Country::kChina:
      req.http_host = "example.com";
      req.http_path = "/?q=ultrasurf";
      req.sni = "www.wikipedia.org";
      break;
    case Country::kIndia:
      req.http_host = "blocked-site.in";
      req.http_path = "/";
      break;
    case Country::kIran:
      req.http_host = "youtube.com";
      req.http_path = "/";
      req.sni = "youtube.com";
      break;
    case Country::kKazakhstan:
      req.http_host = "blocked-site.kz";
      req.http_path = "/";
      break;
    case Country::kTurkmenistan:
      req.http_host = "blocked-site.tm";
      req.http_path = "/";
      req.sni = "blocked-site.tm";
      break;
  }
  return req;
}

CountryMessages::CountryMessages(const ClientRequest& request)
    : http(request.http_host, request.http_path,
           "<html><body>the real content</body></html>"),
      client_hello(build_client_hello(request.sni)),
      server_hello(build_server_hello()),
      dns(request.dns_qname),
      ftp_retr(ftp_retr_command(request.ftp_filename)),
      smtp_rcpt(smtp_rcpt_command(request.smtp_recipient)) {}

const CountryMessages& country_messages(Country country) {
  static const std::array<CountryMessages, 5> table = {
      CountryMessages(client_request(Country::kChina)),
      CountryMessages(client_request(Country::kIndia)),
      CountryMessages(client_request(Country::kIran)),
      CountryMessages(client_request(Country::kKazakhstan)),
      CountryMessages(client_request(Country::kTurkmenistan))};
  return table.at(static_cast<std::size_t>(country));
}

std::vector<AppProtocol> censored_protocols(Country country) {
  switch (country) {
    case Country::kChina:
      return all_protocols();  // all five
    case Country::kIndia:
      return {AppProtocol::kHttp};
    case Country::kIran:
      // DNS-over-TCP is no longer censored in Iran (§4.2 footnote);
      // Kazakhstan's HTTPS MITM is defunct, Iran's HTTPS DPI is active.
      return {AppProtocol::kHttp, AppProtocol::kHttps};
    case Country::kKazakhstan:
      return {AppProtocol::kHttp};
    case Country::kTurkmenistan:
      // Bidirectional RST+ACK injection on both HTTP Host and TLS SNI.
      return {AppProtocol::kHttp, AppProtocol::kHttps};
  }
  return {};
}

const std::vector<VantageRow>& vantage_table() {
  static const std::vector<VantageRow> rows = {
      {Country::kChina,
       {"Beijing", "Shanghai", "Shenzen", "Zhengzhou"},
       all_protocols()},
      {Country::kIndia, {"Bangalore"}, {AppProtocol::kHttp}},
      {Country::kIran,
       {"Tehran", "Zanjan"},
       {AppProtocol::kHttp, AppProtocol::kHttps}},
      {Country::kKazakhstan,
       {"Qaraghandy", "Almaty"},
       {AppProtocol::kHttp}},
      {Country::kTurkmenistan,
       {"Ashgabat"},
       {AppProtocol::kHttp, AppProtocol::kHttps}},
  };
  return rows;
}

const std::vector<std::string>& server_countries() {
  static const std::vector<std::string> countries = {
      "Australia", "Germany", "Ireland", "Japan", "South Korea", "US"};
  return countries;
}

}  // namespace caya
