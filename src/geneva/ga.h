// Geneva's genetic algorithm: evolve packet-manipulation strategies against
// a (simulated) censor. Mirrors the paper's §4.1 configuration: a population
// pool (300 in the paper), up to 50 generations, stopping early on
// convergence.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geneva/fitness_cache.h"
#include "geneva/mutation.h"
#include "geneva/strategy.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace caya {

/// Evaluates a strategy against the censor environment; returns a score in
/// [0, 100] (typically success-rate x 100). The GA subtracts its own
/// complexity penalty.
using FitnessFn = std::function<double(const Strategy&)>;

struct GaConfig {
  std::size_t population_size = 300;
  std::size_t generations = 50;
  double elite_fraction = 0.1;
  double crossover_rate = 0.4;
  double mutation_rate = 0.9;
  std::size_t tournament_size = 3;
  /// Penalty per action-tree node — pushes toward minimal strategies.
  double complexity_weight = 0.5;
  /// Stop when the best fitness has not improved for this many generations.
  std::size_t convergence_patience = 8;
  /// Fitness evaluations run concurrently across this many workers of the
  /// shared pool (1 = serial; 0 = hardware concurrency). Results are reduced
  /// in population order, so any jobs value produces identical evolution.
  std::size_t jobs = 1;
};

struct Individual {
  Strategy strategy;
  double fitness = 0.0;
  bool evaluated = false;
};

struct GenerationStats {
  std::size_t generation = 0;
  double best_fitness = 0.0;
  double mean_fitness = 0.0;
  std::string best_strategy;
  /// Individuals of this generation whose fitness came from the memoization
  /// cache (or from a duplicate genome in the same batch) instead of a
  /// fresh trial batch.
  std::size_t cache_hits = 0;
  /// Individuals whose trial batches actually ran this generation.
  std::size_t evaluations = 0;
};

class GeneticAlgorithm {
 public:
  GeneticAlgorithm(GeneConfig genes, GaConfig config, FitnessFn fitness,
                   Rng rng, Logger logger = Logger::silent());

  /// Runs the full evolution; returns the best individual found. Throws
  /// std::invalid_argument when the population is empty (population size 0
  /// and no seeded strategy).
  Individual run();

  /// Seeds the initial population with a known strategy (in addition to
  /// random individuals) — used to test local refinement.
  void seed(Strategy strategy);

  /// Attaches a fitness memoization cache: genomes whose canonical strategy
  /// string was scored before (in this run or by anyone else sharing the
  /// cache) skip their trial batches and reuse the recorded raw fitness.
  void set_fitness_cache(std::shared_ptr<FitnessCache> cache) {
    cache_ = std::move(cache);
  }

  [[nodiscard]] const std::vector<GenerationStats>& history() const noexcept {
    return history_;
  }

  // ---- Crash-safe checkpointing -------------------------------------------
  //
  // run() reaches a resumable point at the end of every loop iteration:
  // history through generation g is recorded, the *next* generation's
  // population is already bred and evaluated, and no RNG draw separates the
  // checkpoint from the next iteration. save_checkpoint() at that point +
  // restore_checkpoint() into a freshly constructed GA (same GeneConfig,
  // GaConfig, fitness, seed Rng) + run() reproduces the uninterrupted run's
  // GaHistory byte-identically, for any jobs values on either side.

  /// Called at each resumable point with the generation just recorded.
  /// Fired AFTER the next population is evaluated, so saving inside the
  /// hook captures a state run() can continue from without re-evaluation.
  using CheckpointHook =
      std::function<void(const GeneticAlgorithm&, std::size_t)>;
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Serializes the full resumable state: loop counters, per-run RNG state,
  /// population (canonical strategies + exact fitness), history, and the
  /// attached FitnessCache's entries.
  void save_checkpoint(SnapshotWriter& writer) const;

  /// Restores state saved by save_checkpoint(). Throws SnapshotError when
  /// the snapshot's GA configuration digest does not match this instance's
  /// (resuming under a different config would silently diverge; jobs is
  /// excluded — sharding never changes results). A subsequent run()
  /// continues the interrupted campaign.
  void restore_checkpoint(const SnapshotReader& reader);

  /// Snapshot `kind` tag written/required by the GA checkpoint payload.
  [[nodiscard]] static std::string_view snapshot_kind() noexcept {
    return "ga-checkpoint";
  }

 private:
  /// Per-evaluate_all bookkeeping, folded into the evaluation pass so
  /// history snapshots never rescan the population.
  struct EvalSummary {
    double best_fitness = 0.0;
    double mean_fitness = 0.0;
    std::size_t cache_hits = 0;
    std::size_t evaluations = 0;
  };

  void ensure_population();
  EvalSummary evaluate_all();
  [[nodiscard]] const Individual& tournament_pick();
  void step();
  /// Digest of every GaConfig field that changes evolution results (jobs is
  /// excluded) — stored in checkpoints, verified on restore.
  [[nodiscard]] std::string config_digest() const;

  GeneConfig genes_;
  GaConfig config_;
  FitnessFn fitness_;
  Rng rng_;
  Logger logger_;
  std::shared_ptr<FitnessCache> cache_;
  std::vector<Individual> population_;
  std::vector<GenerationStats> history_;

  // Loop state lives on the object (not in run()'s frame) so a checkpoint
  // between iterations captures a resumable point.
  std::size_t gen_next_ = 0;
  double best_so_far_ = 0.0;
  std::size_t stale_ = 0;
  EvalSummary eval_;
  bool resumed_ = false;
  CheckpointHook checkpoint_hook_;
};

}  // namespace caya
