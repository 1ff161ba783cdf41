// Regenerates the §5.3 ablations on Kazakhstan's censor:
//
//   Strategy 9 (Triple Load): works only with >= 3 back-to-back payloads;
//     fewer payloads, or an empty SYN+ACK interleaved, defeat it; payload
//     size (1 byte vs hundreds) is irrelevant.
//   Strategy 10 (Double GET): needs the benign GET twice, well-formed up to
//     the "." — one copy or a truncated "GET / HTTP1" fail; a longer
//     well-formed request works.
//   Strategy 11 (Null Flags): works whenever the handshake packet avoids
//     FIN/RST/SYN/ACK entirely; any of those bits restores censorship.
#include <cstdio>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/parser.h"

namespace caya {
namespace {

double success(const std::string& dsl, std::uint64_t seed) {
  TrialCell cell;
  cell.config.country = Country::kKazakhstan;
  cell.config.protocol = AppProtocol::kHttp;
  cell.config.seed = seed;
  cell.conn.server_strategy = parse_strategy(dsl);
  return measure_cells({cell}, 50).front().rate.rate();
}

void row(const char* label, const std::string& dsl, std::uint64_t seed,
         const char* expectation) {
  std::printf("  %-46s %4.0f%%   %s\n", label, success(dsl, seed) * 100,
              expectation);
}

}  // namespace
}  // namespace caya

int main() {
  using namespace caya;
  std::printf("§5.3 ablations against Kazakhstan's HTTP censor "
              "(50 trials per row).\n\n");

  std::printf("Strategy 9 (Triple Load):\n");
  row("1 payload SYN+ACK",
      "[TCP:flags:SA]-tamper{TCP:load:corrupt}-| \\/", 31'000,
      "(paper: fails)");
  row("2 payload SYN+ACKs",
      "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate,)-| \\/", 32'000,
      "(paper: fails)");
  row("3 payload SYN+ACKs (published)",
      "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate,),)-| \\/",
      33'000, "(paper: 100%)");
  row("4 payload SYN+ACKs",
      "[TCP:flags:SA]-tamper{TCP:load:corrupt}(duplicate(duplicate("
      "duplicate,),),)-| \\/",
      34'000, "(paper: still 100%)");
  row("2 payloads + empty SYN+ACK between",
      "[TCP:flags:SA]-duplicate(tamper{TCP:load:corrupt},duplicate(,"
      "tamper{TCP:load:corrupt}))-| \\/",
      35'000, "(paper: fails)");
  row("3 one-byte payloads",
      "[TCP:flags:SA]-tamper{TCP:load:replace:x}(duplicate(duplicate,),)-| "
      "\\/",
      36'000, "(paper: size is irrelevant, 100%)");

  std::printf("\nStrategy 10 (Double GET):\n");
  row("single benign GET",
      "[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}-| \\/", 37'000,
      "(paper: fails)");
  row("double benign GET (published)",
      "[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}(duplicate,)-| "
      "\\/",
      38'000, "(paper: 100%)");
  row("double GET, dot removed",
      "[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1}(duplicate,)-| "
      "\\/",
      39'000, "(paper: fails)");
  row("double GET, longer path",
      "[TCP:flags:SA]-tamper{TCP:load:replace:GET /index.html HTTP1.}("
      "duplicate,)-| \\/",
      40'000, "(paper: works)");

  std::printf("\nStrategy 11 (Null Flags):\n");
  row("no flags (published)",
      "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:},)-| \\/", 41'000,
      "(paper: 100%)");
  row("PSH only (no FIN/RST/SYN/ACK)",
      "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:P},)-| \\/", 42'000,
      "(paper: works)");
  row("URG+ECE only",
      "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:UE},)-| \\/",
      43'000, "(paper: works)");
  row("FIN set",
      "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:F},)-| \\/", 44'000,
      "(paper: fails)");
  row("ACK set",
      "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:A},)-| \\/", 45'000,
      "(paper: fails)");
  return 0;
}
