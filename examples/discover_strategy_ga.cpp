// Discover a brand-new server-side evasion strategy with Geneva's genetic
// algorithm — the paper's §4.1 methodology against a simulated censor.
//
//   $ ./discover_strategy_ga
//
// Evolution is restricted, as in the paper, to triggering on the SYN+ACK
// (the only packet a server sends before a censorship event). Watch the
// per-generation log: the population usually converges on a window-
// reduction or payload-injection species within a handful of generations.
#include <cstdio>

#include "eval/rates.h"
#include "geneva/ga.h"

int main() {
  using namespace caya;

  const Country country = Country::kKazakhstan;
  const AppProtocol protocol = AppProtocol::kHttp;
  std::printf("Evolving server-side strategies against %s / %s...\n\n",
              std::string(to_string(country)).c_str(),
              std::string(to_string(protocol)).c_str());

  GeneConfig genes;  // default: trigger locked to [TCP:flags:SA]
  GaConfig config;
  config.population_size = 80;
  config.generations = 15;
  config.convergence_patience = 6;

  Logger logger(LogLevel::kInfo, [](LogLevel, std::string_view msg) {
    std::printf("  %.*s\n", static_cast<int>(msg.size()), msg.data());
  });

  GeneticAlgorithm ga(genes, config,
                      make_supervised_fitness(country, protocol,
                                              /*trials=*/20,
                                              /*base_seed=*/2026,
                                              /*quarantine=*/nullptr),
                      Rng(7), logger);
  const Individual best = ga.run();

  std::printf("\nbest strategy: %s\n", best.strategy.to_string().c_str());
  std::printf("GA fitness   : %.1f (success%% minus complexity penalty)\n",
              best.fitness);

  // Validate on fresh seeds.
  RateOptions options;
  options.trials = 200;
  options.base_seed = 555'000;
  const double confirmed =
      measure_rate(country, protocol, best.strategy, options).rate();
  std::printf("validation   : %.0f%% success over 200 fresh connections\n",
              confirmed * 100);
  return 0;
}
