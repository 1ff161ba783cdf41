// Baseline comparison: prior work's client-side evasion vs this paper's
// server-side strategies, across all four censors.
//
// Client-side TCB-teardown (Khattak et al., lib.erate, INTANG, Geneva) needs
// censor state to invalidate — it works against China's stateful GFW but has
// nothing to tear down against India/Iran's stateless DPI; there, client-side
// segmentation is the prior-work tool. Server-side strategies cover all four
// censors without touching the client (the paper's contribution).
#include <cstdio>

#include "eval/clientside.h"
#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/parser.h"

namespace caya {
namespace {

double rate(Country country, AppProtocol proto,
            const std::optional<Strategy>& client_strategy,
            const std::optional<Strategy>& server_strategy,
            std::uint64_t seed) {
  TrialCell cell;
  cell.config.country = country;
  cell.config.protocol = proto;
  cell.config.seed = seed;
  cell.conn.server_strategy = server_strategy;
  cell.conn.client_strategy = client_strategy;
  return measure_cells({cell}, 80).front().rate.rate();
}

int best_server_strategy(Country country, AppProtocol proto) {
  if (country == Country::kChina) {
    return proto == AppProtocol::kSmtp ? 8 : 1;
  }
  if (country == Country::kKazakhstan) return 9;
  return 8;
}

}  // namespace
}  // namespace caya

int main() {
  using namespace caya;
  const Strategy teardown = clientside_corpus()[0].client_strategy();
  const Strategy segmentation =
      parse_strategy("[TCP:flags:PA]-fragment{TCP:8:True}-| \\/");

  std::printf("Prior-work client-side baselines vs this paper's server-side "
              "strategies\n(80 trials per cell).\n\n");
  std::printf("%-12s %-6s %16s %16s %16s\n", "country", "proto",
              "client teardown", "client segment.", "server-side");

  std::uint64_t seed = 880'000;
  for (const Country country : all_countries()) {
    for (const AppProtocol proto : censored_protocols(country)) {
      const double td = rate(country, proto, teardown, std::nullopt,
                             seed += 1000);
      const double seg = rate(country, proto, segmentation, std::nullopt,
                              seed += 1000);
      const double srv = rate(
          country, proto, std::nullopt,
          parsed_strategy(best_server_strategy(country, proto)),
          seed += 1000);
      std::printf("%-12s %-6s %15.0f%% %15.0f%% %15.0f%%\n",
                  std::string(to_string(country)).c_str(),
                  std::string(to_string(proto)).c_str(), td * 100, seg * 100,
                  srv * 100);
    }
  }
  std::printf(
      "\nTeardown needs censor state: strong vs the GFW, useless vs the\n"
      "stateless Indian/Iranian boxes. Segmentation needs a censor that\n"
      "cannot reassemble: useless vs GFW HTTP/HTTPS/DNS. Both require\n"
      "software at every client. The server-side column needs nothing from\n"
      "the client at all -- the paper's point.\n");
  return 0;
}
