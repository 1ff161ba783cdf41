// Regenerates §3: client-side strategies do not generalize to server-side.
//
// The 25-strategy client-side insertion-packet corpus is run three ways
// against China's HTTP censorship:
//   (a) as published, client-side             -> most work;
//   (b) server-side analog, insertion BEFORE the SYN+ACK  -> none work;
//   (c) server-side analog, insertion AFTER the SYN+ACK   -> none work.
#include <cstdio>

#include "eval/clientside.h"
#include "eval/rates.h"

namespace caya {
namespace {

double success_rate(const std::optional<Strategy>& client_strategy,
                    const std::optional<Strategy>& server_strategy,
                    std::uint64_t seed) {
  TrialCell cell;
  cell.config.country = Country::kChina;
  cell.config.protocol = AppProtocol::kHttp;
  cell.config.seed = seed;
  cell.conn.server_strategy = server_strategy;
  cell.conn.client_strategy = client_strategy;
  return measure_cells({cell}, 40).front().rate.rate();
}

}  // namespace
}  // namespace caya

int main() {
  using namespace caya;
  std::printf("§3: do client-side strategies generalize to server-side?\n");
  std::printf("(China, HTTP; 40 trials per variant)\n\n");
  std::printf("%-44s %10s %13s %13s\n", "client-side strategy", "client-side",
              "server(before)", "server(after)");

  std::uint64_t seed = 5'000;
  int client_working = 0;
  int server_working = 0;
  int total = 0;
  for (const auto& entry : clientside_corpus()) {
    const double as_client =
        success_rate(entry.client_strategy(), std::nullopt, seed += 100);
    const double before =
        success_rate(std::nullopt, entry.server_analog_before(), seed += 100);
    const double after =
        success_rate(std::nullopt, entry.server_analog_after(), seed += 100);
    std::printf("%-44s %9.0f%% %12.0f%% %12.0f%%\n", entry.name.c_str(),
                as_client * 100, before * 100, after * 100);
    ++total;
    if (as_client > 0.5) ++client_working;
    if (before > 0.5 || after > 0.5) ++server_working;
  }
  std::printf("\n%d/%d corpus strategies work client-side;"
              " %d/%d of their %d server-side analogs work.\n",
              client_working, total, server_working, total, 2 * total);
  std::printf("Paper: all 25 work client-side; 0/50 analogs work "
              "server-side.\n");
  return 0;
}
