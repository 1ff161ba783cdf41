// Demonstrates Geneva's genetic algorithm discovering a server-side evasion
// strategy from scratch against a simulated censor (§4.1 methodology, scaled
// down from population 300 / 50 generations so the bench stays fast).
#include <cstdio>

#include "eval/rates.h"
#include "geneva/ga.h"
#include "geneva/parser.h"
#include "geneva/species.h"

namespace caya {
namespace {

void evolve(Country country, AppProtocol protocol, const char* label,
            std::uint64_t seed, GeneConfig genes = {}) {
  // default genes: trigger restricted to [TCP:flags:SA] (§4.1)
  GaConfig config;
  config.population_size = 120;
  config.generations = 30;
  config.convergence_patience = 10;
  config.complexity_weight = 0.5;

  GeneticAlgorithm ga(genes, config,
                      make_supervised_fitness(country, protocol,
                                              /*trials=*/25, seed,
                                              /*quarantine=*/nullptr),
                      Rng(seed));
  const Individual best = ga.run();

  // Confirm with an independent, larger evaluation.
  RateOptions options;
  options.trials = 100;
  options.base_seed = seed + 999;
  const double confirmed =
      measure_rate(country, protocol, best.strategy, options).rate();

  std::printf("%s\n", label);
  std::printf("  generations run : %zu\n", ga.history().size());
  // How many behaviourally distinct species the run explored (dedup of
  // every per-generation best).
  std::vector<Strategy> bests;
  for (const auto& gen : ga.history()) {
    bests.push_back(parse_strategy(gen.best_strategy));
  }
  std::printf("  best species    : %zu distinct across generations\n",
              distinct_species(bests).size());
  std::printf("  best strategy   : %s\n", best.strategy.to_string().c_str());
  std::printf("  fitness         : %.1f\n", best.fitness);
  std::printf("  confirmed rate  : %.0f%% (100 fresh trials)\n\n",
              confirmed * 100);
}

}  // namespace
}  // namespace caya

int main() {
  using namespace caya;
  std::printf("Geneva server-side strategy discovery (scaled-down GA: "
              "population 120, <=30 generations;\nthe paper used population "
              "300, <=50 generations).\n\n");
  evolve(Country::kKazakhstan, AppProtocol::kHttp,
         "Kazakhstan / HTTP (paper finds Strategies 8-11):", 81'000);
  evolve(Country::kChina, AppProtocol::kSmtp,
         "China / SMTP (paper finds window reduction at 100%):", 82'000);
  evolve(Country::kChina, AppProtocol::kHttp,
         "China / HTTP (paper finds ~54% resync-desync strategies):", 83'000);

  // §4.1 restricted evolution to SYN+ACK triggers for protocols where that
  // is the only pre-censorship server packet. FTP servers speak first
  // (greeting, 331, 230), so there the search may also trigger on data
  // packets:
  GeneConfig ftp_genes;
  const Field& flags = lookup_field(Proto::kTcp, "flags");
  ftp_genes.allowed_triggers = {{flags, "SA"}, {flags, "PA"}};
  evolve(Country::kChina, AppProtocol::kFtp,
         "China / FTP (SYN+ACK and data-packet triggers allowed):", 84'000,
         ftp_genes);
  return 0;
}
