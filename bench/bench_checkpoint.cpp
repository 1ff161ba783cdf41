// Checkpoint/resume and supervision overhead benchmark: what does crash
// safety cost a long campaign?
//   * snapshot encode+write and load+restore latency (and file size) as the
//     GA population grows,
//   * evolution throughput with and without a per-generation checkpoint
//     hook (the --checkpoint-every 1 worst case),
//   * raw trial throughput with and without CAYA_SELFCHECK invariants.
// Emits BENCH_checkpoint.json next to the human summary.
//
// Knobs: CAYA_TRIALS (trials per rate batch, default 120) and CAYA_JOBS
// (worker threads, default hardware concurrency).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/fitness_cache.h"
#include "geneva/ga.h"
#include "util/selfcheck.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"

namespace caya {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::atoll(value));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Cheap deterministic fitness so snapshot benchmarks measure the snapshot
/// machinery, not censor simulations.
FitnessFn synthetic_fitness() {
  return [](const Strategy& s) {
    return static_cast<double>(fnv1a64(s.to_string()) % 1000) / 10.0;
  };
}

struct SnapshotCosts {
  std::size_t population = 0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::size_t bytes = 0;
};

SnapshotCosts measure_snapshot(std::size_t population,
                               const std::string& path) {
  GaConfig config;
  config.population_size = population;
  config.generations = 4;
  config.convergence_patience = 100;
  GeneticAlgorithm ga(GeneConfig{}, config, synthetic_fitness(), Rng(11));
  ga.set_fitness_cache(std::make_shared<FitnessCache>("bench"));
  (void)ga.run();

  SnapshotCosts costs;
  costs.population = population;

  constexpr int kRounds = 10;
  auto start = std::chrono::steady_clock::now();
  std::string encoded;
  for (int i = 0; i < kRounds; ++i) {
    SnapshotWriter writer;
    ga.save_checkpoint(writer);
    encoded = writer.encode(GeneticAlgorithm::snapshot_kind());
    write_checkpoint(path, encoded);
  }
  costs.save_ms = seconds_since(start) * 1000.0 / kRounds;
  costs.bytes = encoded.size();

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    const auto loaded = load_checkpoint(path);
    if (!loaded) return costs;
    GeneticAlgorithm fresh(GeneConfig{}, config, synthetic_fitness(),
                           Rng(11));
    fresh.set_fitness_cache(std::make_shared<FitnessCache>("bench"));
    fresh.restore_checkpoint(SnapshotReader::parse(loaded->bytes));
  }
  costs.load_ms = seconds_since(start) * 1000.0 / kRounds;
  return costs;
}

/// One full (real-fitness) evolution; returns wall seconds.
double evolve_seconds(std::size_t trials, std::size_t jobs,
                      bool checkpoint_each_gen, const std::string& path) {
  GaConfig config;
  config.population_size = 16;
  config.generations = 4;
  config.convergence_patience = 100;
  config.jobs = jobs;
  GeneticAlgorithm ga(
      GeneConfig{}, config,
      make_supervised_fitness(Country::kChina, AppProtocol::kHttp, trials,
                              /*base_seed=*/63'000, /*quarantine=*/nullptr),
      Rng(21));
  ga.set_fitness_cache(std::make_shared<FitnessCache>("bench-real"));
  if (checkpoint_each_gen) {
    ga.set_checkpoint_hook([&path](const GeneticAlgorithm& g, std::size_t) {
      SnapshotWriter writer;
      g.save_checkpoint(writer);
      write_checkpoint(path, writer.encode(GeneticAlgorithm::snapshot_kind()));
    });
  }
  const auto start = std::chrono::steady_clock::now();
  (void)ga.run();
  return seconds_since(start);
}

/// Trial batch throughput (trials/sec) with the current selfcheck setting.
double trials_per_sec(std::size_t trials, std::size_t jobs) {
  RateOptions options;
  options.trials = trials;
  options.base_seed = 91'000;
  options.jobs = jobs;
  const auto start = std::chrono::steady_clock::now();
  (void)measure_rate_supervised(Country::kChina, AppProtocol::kHttp,
                                parsed_strategy(1), options);
  const double elapsed = seconds_since(start);
  return elapsed > 0 ? static_cast<double>(trials) / elapsed : 0.0;
}

}  // namespace
}  // namespace caya

int main() {
  using namespace caya;
  const std::size_t trials = env_size("CAYA_TRIALS", 120);
  const std::size_t jobs = env_size("CAYA_JOBS", ThreadPool::hardware_jobs());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "caya-bench-ckpt").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/bench.ckpt";

  std::printf("Checkpoint/resume + supervision overhead (%zu trials, %zu "
              "jobs)\n\n",
              trials, jobs);

  // 1. Snapshot latency/size vs population.
  std::printf("%-12s %10s %10s %12s\n", "population", "save ms", "load ms",
              "bytes");
  std::vector<SnapshotCosts> snapshot_costs;
  for (const std::size_t population : {50u, 200u, 800u}) {
    snapshot_costs.push_back(measure_snapshot(population, path));
    const SnapshotCosts& c = snapshot_costs.back();
    std::printf("%-12zu %10.3f %10.3f %12zu\n", c.population, c.save_ms,
                c.load_ms, c.bytes);
  }

  // 2. Evolution throughput with/without per-generation checkpoints.
  const double plain_s = evolve_seconds(trials / 6, jobs, false, path);
  const double ckpt_s = evolve_seconds(trials / 6, jobs, true, path);
  const double ckpt_overhead =
      plain_s > 0 ? (ckpt_s - plain_s) / plain_s : 0.0;
  std::printf("\nevolve           : %6.2f s\n", plain_s);
  std::printf("evolve + ckpt/gen: %6.2f s  (%+.1f%%)\n", ckpt_s,
              ckpt_overhead * 100);

  // 3. Trial throughput with/without CAYA_SELFCHECK invariants.
  set_selfcheck_enabled(false);
  const double tps_off = trials_per_sec(trials, jobs);
  set_selfcheck_enabled(true);
  const double tps_on = trials_per_sec(trials, jobs);
  set_selfcheck_enabled(false);
  const double selfcheck_overhead =
      tps_off > 0 ? (tps_off - tps_on) / tps_off : 0.0;
  std::printf("trials/s         : %8.1f plain, %8.1f selfcheck (%.1f%% "
              "overhead)\n",
              tps_off, tps_on, selfcheck_overhead * 100);

  std::ofstream json("BENCH_checkpoint.json");
  json << "{\n  \"snapshots\": [\n";
  for (std::size_t i = 0; i < snapshot_costs.size(); ++i) {
    const SnapshotCosts& c = snapshot_costs[i];
    json << "    {\"population\": " << c.population
         << ", \"save_ms\": " << c.save_ms << ", \"load_ms\": " << c.load_ms
         << ", \"bytes\": " << c.bytes << "}"
         << (i + 1 < snapshot_costs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"evolve_seconds\": " << plain_s << ",\n"
       << "  \"evolve_checkpointed_seconds\": " << ckpt_s << ",\n"
       << "  \"checkpoint_overhead\": " << ckpt_overhead << ",\n"
       << "  \"trials_per_sec\": " << tps_off << ",\n"
       << "  \"trials_per_sec_selfcheck\": " << tps_on << ",\n"
       << "  \"selfcheck_overhead\": " << selfcheck_overhead << ",\n"
       << "  \"jobs\": " << jobs << "\n"
       << "}\n";
  json.close();
  std::printf("\nwrote BENCH_checkpoint.json\n");
  std::filesystem::remove_all(dir);
  return 0;
}
