// Regenerates §4.2's residual-censorship observation:
//
//   * HTTP (China): for ~90 s after a censorship event, ALL new connections
//     to the same server IP and port are torn down immediately after their
//     3-way handshakes — even connections that would have been benign.
//   * DNS-over-TCP, FTP, SMTP (and currently HTTPS): no residual
//     censorship; a follow-up request right after a censorship event is
//     free to proceed.
#include <cstdio>

#include "eval/rates.h"
#include "eval/strategies.h"

namespace caya {
namespace {

void http_timeline() {
  std::printf("China / HTTP timeline (single environment, consecutive "
              "connections):\n");
  Environment env({.country = Country::kChina,
                   .protocol = AppProtocol::kHttp,
                   .seed = 424242});

  const TrialResult first = env.run_connection({});
  std::printf("  t=%4llus  forbidden request      : %s\n",
              static_cast<unsigned long long>(env.loop().now() / 1000000),
              first.success ? "uncensored (baseline miss)" : "CENSORED");

  const TrialResult second = env.run_connection({});
  std::printf("  t=%4llus  immediate reconnect    : %s (%zu censor "
              "teardown%s)\n",
              static_cast<unsigned long long>(env.loop().now() / 1000000),
              second.success ? "succeeded" : "killed after handshake",
              second.censor_events, second.censor_events == 1 ? "" : "s");

  env.loop().run_until(env.loop().now() + duration::sec(95));
  const bool still_active =
      env.censors().china()->box(AppProtocol::kHttp).residual_active(
          eval_server_addr(), env.server_port(), env.loop().now());
  std::printf("  t=%4llus  after the ~90s window  : residual %s\n",
              static_cast<unsigned long long>(env.loop().now() / 1000000),
              still_active ? "STILL ACTIVE (unexpected)" : "expired");

  const TrialResult third = env.run_connection({});
  std::printf("  t=%4llus  forbidden request again: %s\n",
              static_cast<unsigned long long>(env.loop().now() / 1000000),
              third.success ? "uncensored" : "CENSORED (fresh event)");
}

void other_protocols() {
  std::printf("\nOther protocols (censorship event, then immediate "
              "follow-up):\n");
  for (const AppProtocol proto :
       {AppProtocol::kDnsOverTcp, AppProtocol::kFtp, AppProtocol::kHttps,
        AppProtocol::kSmtp}) {
    Environment env({.country = Country::kChina,
                     .protocol = proto,
                     .seed = 77});
    (void)env.run_connection({});
    const bool residual = env.censors().china()->box(proto).residual_active(
        eval_server_addr(), env.server_port(), env.loop().now());
    std::printf("  %-5s: residual censorship %s\n",
                std::string(to_string(proto)).c_str(),
                residual ? "ACTIVE (unexpected)" : "absent -- follow-up "
                                                   "requests proceed");
  }
  std::printf("\nPaper: residual censorship observed only for HTTP (~90s); "
              "HTTPS residual censorship\nwas not active during the "
              "experiments, and DNS/FTP/SMTP never showed it.\n");
}

}  // namespace
}  // namespace caya

int main() {
  std::printf("§4.2: residual censorship in China.\n\n");
  caya::http_timeline();
  caya::other_protocols();
  return 0;
}
