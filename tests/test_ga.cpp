#include "geneva/ga.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "geneva/parser.h"

namespace caya {
namespace {

GaConfig small_config() {
  GaConfig config;
  config.population_size = 20;
  config.generations = 10;
  config.convergence_patience = 20;  // don't stop early in tests
  return config;
}

// A synthetic fitness landscape: reward strategies that tamper the window
// field (no simulation involved, so the test is fast and exact).
double window_fitness(const Strategy& s) {
  const std::string text = s.to_string();
  double score = 0;
  if (text.find("tamper{TCP:window") != std::string::npos) score += 50;
  if (text.find("options-wscale") != std::string::npos) score += 50;
  return score;
}

TEST(GeneticAlgorithm, ImprovesOnSyntheticLandscape) {
  GeneticAlgorithm ga(GeneConfig{}, small_config(), window_fitness, Rng(11));
  const Individual best = ga.run();
  EXPECT_GE(best.fitness, 40.0);
  ASSERT_FALSE(ga.history().empty());
  EXPECT_GE(ga.history().back().best_fitness,
            ga.history().front().best_fitness);
}

TEST(GeneticAlgorithm, DeterministicUnderSeed) {
  GeneticAlgorithm a(GeneConfig{}, small_config(), window_fitness, Rng(5));
  GeneticAlgorithm b(GeneConfig{}, small_config(), window_fitness, Rng(5));
  EXPECT_EQ(a.run().strategy.to_string(), b.run().strategy.to_string());
}

TEST(GeneticAlgorithm, SeededIndividualSurvivesWhenOptimal) {
  GeneticAlgorithm ga(GeneConfig{}, small_config(), window_fitness, Rng(3));
  ga.seed(parse_strategy(
      "[TCP:flags:SA]-tamper{TCP:window:replace:10}("
      "tamper{TCP:options-wscale:replace:},)-| \\/"));
  const Individual best = ga.run();
  EXPECT_GE(best.fitness, 95.0);
}

TEST(GeneticAlgorithm, ComplexityPenaltyPrefersSmallTrees) {
  // Constant raw fitness: only the size penalty differentiates.
  auto constant = [](const Strategy&) { return 50.0; };
  GaConfig config = small_config();
  config.complexity_weight = 2.0;
  config.generations = 15;
  GeneticAlgorithm ga(GeneConfig{}, config, constant, Rng(9));
  const Individual best = ga.run();
  // Optimal individual is the smallest possible tree.
  EXPECT_LE(best.strategy.size(), 3u);
}

TEST(GeneticAlgorithm, ConvergenceStopsEarly) {
  GaConfig config = small_config();
  config.generations = 50;
  config.convergence_patience = 3;
  auto constant = [](const Strategy&) { return 1.0; };
  GeneticAlgorithm ga(GeneConfig{}, config, constant, Rng(2));
  (void)ga.run();
  EXPECT_LT(ga.history().size(), 50u);
}

TEST(GeneticAlgorithm, EmptyPopulationThrowsButSeedingFillsIt) {
  GaConfig config = small_config();
  config.population_size = 0;
  GeneticAlgorithm empty(GeneConfig{}, config, window_fitness, Rng(1));
  EXPECT_THROW((void)empty.run(), std::invalid_argument);

  const std::string dsl = "[TCP:flags:SA]-tamper{TCP:window:replace:10}-|";
  GeneticAlgorithm seeded(GeneConfig{}, config, window_fitness, Rng(1));
  seeded.seed(parse_strategy(dsl));
  EXPECT_EQ(seeded.run().strategy.to_string(),
            parse_strategy(dsl).to_string());
}

TEST(GeneticAlgorithm, HistoryRecordsEveryGeneration) {
  GeneticAlgorithm ga(GeneConfig{}, small_config(), window_fitness, Rng(7));
  (void)ga.run();
  for (std::size_t i = 0; i < ga.history().size(); ++i) {
    EXPECT_EQ(ga.history()[i].generation, i);
    EXPECT_FALSE(ga.history()[i].best_strategy.empty());
  }
}

}  // namespace
}  // namespace caya
