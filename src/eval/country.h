// Per-country experiment configuration: what each censor forbids, what the
// client requests to trigger it (§4.2), and the Table 1 vantage-point data.
#pragma once

#include <string>
#include <vector>

#include "apps/dns_app.h"
#include "apps/http.h"
#include "apps/protocol.h"
#include "censor/dpi.h"
#include "eval/strategies.h"

namespace caya {

/// What the unmodified client asks for in each country (chosen to trigger
/// censorship, per §4.2).
struct ClientRequest {
  std::string http_host = "example.com";
  std::string http_path = "/?q=ultrasurf";
  std::string sni = "www.wikipedia.org";
  std::string dns_qname = "www.wikipedia.org";
  std::string ftp_filename = "ultrasurf";
  std::string smtp_recipient = "xiazai@upup8.com";
};

/// The content rules the country's censor enforces.
[[nodiscard]] ForbiddenContent forbidden_content(Country country);

/// The matching forbidden request an unmodified client would issue there.
[[nodiscard]] ClientRequest client_request(Country country);

/// Every message a trial's apps send in one country, built from its
/// ClientRequest once per process, on first use, and shared read-only by
/// every substrate and thread. The apps take them as views.
struct CountryMessages {
  explicit CountryMessages(const ClientRequest& request);

  HttpMessages http;
  Bytes client_hello;
  Bytes server_hello;
  DnsQueries dns;
  Bytes ftp_retr;
  Bytes smtp_rcpt;
};
[[nodiscard]] const CountryMessages& country_messages(Country country);

/// Protocols for which the country censors (and the paper reports results).
[[nodiscard]] std::vector<AppProtocol> censored_protocols(Country country);

/// Table 1: client vantage points and protocols per country.
struct VantageRow {
  Country country = Country::kChina;
  std::vector<std::string> vantage_points;
  std::vector<AppProtocol> protocols;
};
[[nodiscard]] const std::vector<VantageRow>& vantage_table();

/// Server-side vantage countries used for training (§4.2).
[[nodiscard]] const std::vector<std::string>& server_countries();

}  // namespace caya
