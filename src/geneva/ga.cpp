#include "geneva/ga.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "geneva/parser.h"
#include "util/thread_pool.h"

namespace caya {

GeneticAlgorithm::GeneticAlgorithm(GeneConfig genes, GaConfig config,
                                   FitnessFn fitness, Rng rng, Logger logger)
    : genes_(std::move(genes)),
      config_(config),
      fitness_(std::move(fitness)),
      rng_(rng),
      logger_(std::move(logger)) {}

void GeneticAlgorithm::seed(Strategy strategy) {
  Individual ind;
  ind.strategy = std::move(strategy);
  population_.push_back(std::move(ind));
}

void GeneticAlgorithm::ensure_population() {
  while (population_.size() < config_.population_size) {
    Individual ind;
    ind.strategy = random_strategy(genes_, rng_);
    population_.push_back(std::move(ind));
  }
}

GeneticAlgorithm::EvalSummary GeneticAlgorithm::evaluate_all() {
  EvalSummary summary;
  const auto apply = [this](Individual& ind, double raw) {
    ind.fitness = raw - config_.complexity_weight *
                            static_cast<double>(ind.strategy.size());
    ind.evaluated = true;
  };

  // Pass 1 (serial, population order): resolve cache hits and intra-batch
  // duplicate genomes before dispatching anything. Doing this up front keeps
  // hit counts — and therefore GaHistory — identical for every jobs value:
  // a parallel batch can never race two copies of the same genome into two
  // fresh evaluations.
  struct PendingEval {
    std::size_t index;
    std::string key;
  };
  std::vector<PendingEval> pending;
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // ind, slot
  std::unordered_map<std::string, std::size_t> first_slot;
  for (std::size_t i = 0; i < population_.size(); ++i) {
    Individual& ind = population_[i];
    if (ind.evaluated) continue;
    if (cache_ == nullptr) {
      // No cache: evaluate every unevaluated individual, exactly the
      // pre-memoization behaviour (fitness functions with side effects see
      // one call per individual).
      pending.push_back({i, std::string()});
      continue;
    }
    std::string key = ind.strategy.to_string();
    if (const std::optional<double> hit = cache_->lookup(key)) {
      apply(ind, *hit);
      ++summary.cache_hits;
      continue;
    }
    if (const auto it = first_slot.find(key); it != first_slot.end()) {
      duplicates.emplace_back(i, it->second);
      ++summary.cache_hits;
      continue;
    }
    first_slot.emplace(key, pending.size());
    pending.push_back({i, std::move(key)});
  }

  // Pass 2: run the outstanding trial batches, sharded across the pool.
  // Each fitness call is a pure function of the strategy (trial seeds are
  // fixed), so completion order is irrelevant; results land by slot.
  std::vector<double> raw(pending.size(), 0.0);
  parallel_for_indexed(config_.jobs, pending.size(), [&](std::size_t k) {
    raw[k] = fitness_(population_[pending[k].index].strategy);
  });
  summary.evaluations = pending.size();

  // Pass 3 (serial, canonical order): record results, fill duplicates.
  for (std::size_t k = 0; k < pending.size(); ++k) {
    apply(population_[pending[k].index], raw[k]);
    if (cache_ != nullptr) cache_->store(pending[k].key, raw[k]);
  }
  for (const auto& [index, slot] : duplicates) {
    apply(population_[index], raw[slot]);
  }

  std::stable_sort(population_.begin(), population_.end(),
                   [](const Individual& a, const Individual& b) {
                     return a.fitness > b.fitness;
                   });

  double sum = 0.0;
  for (const Individual& ind : population_) sum += ind.fitness;
  if (!population_.empty()) {
    summary.best_fitness = population_.front().fitness;
    summary.mean_fitness = sum / static_cast<double>(population_.size());
  }
  return summary;
}

const Individual& GeneticAlgorithm::tournament_pick() {
  const Individual* best = nullptr;
  for (std::size_t i = 0; i < config_.tournament_size; ++i) {
    const Individual& candidate = rng_.pick(population_);
    if (best == nullptr || candidate.fitness > best->fitness) {
      best = &candidate;
    }
  }
  return *best;
}

void GeneticAlgorithm::step() {
  // population_ is sorted descending by fitness (evaluate_all).
  std::vector<Individual> next;
  next.reserve(config_.population_size);
  const auto elite_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.elite_fraction *
                                  static_cast<double>(population_.size())));
  for (std::size_t i = 0; i < elite_count && i < population_.size(); ++i) {
    next.push_back(population_[i]);  // elites keep their evaluation
  }

  while (next.size() < config_.population_size) {
    Individual child;
    child.strategy = tournament_pick().strategy;
    if (rng_.chance(config_.crossover_rate)) {
      Strategy mate = tournament_pick().strategy;
      crossover(child.strategy, mate, rng_);
    }
    if (rng_.chance(config_.mutation_rate)) {
      mutate(child.strategy, genes_, rng_);
    }
    next.push_back(std::move(child));
  }
  population_ = std::move(next);
}

Individual GeneticAlgorithm::run() {
  if (!resumed_) {
    ensure_population();
    if (population_.empty()) {
      throw std::invalid_argument(
          "the GA population is empty: population size 0 and no seeded "
          "strategy");
    }
    eval_ = evaluate_all();
    best_so_far_ = population_.front().fitness;
    stale_ = 0;
    gen_next_ = 0;
  }

  for (std::size_t gen = gen_next_; gen < config_.generations; ++gen) {
    // Snapshot straight from the evaluation summary — no population rescan.
    history_.push_back({gen, eval_.best_fitness, eval_.mean_fitness,
                        population_.front().strategy.to_string(),
                        eval_.cache_hits, eval_.evaluations});
    logger_.logf(LogLevel::kInfo, "gen ", gen, " best=",
                 population_.front().fitness,
                 " strategy=", population_.front().strategy.to_string());

    if (population_.front().fitness > best_so_far_) {
      best_so_far_ = population_.front().fitness;
      stale_ = 0;
    } else if (++stale_ >= config_.convergence_patience) {
      logger_.logf(LogLevel::kInfo, "converged at generation ", gen);
      // Mark the campaign complete so a checkpoint taken after this run
      // resumes as a no-op instead of re-recording this generation.
      gen_next_ = config_.generations;
      break;
    }

    step();
    eval_ = evaluate_all();
    gen_next_ = gen + 1;
    // The resumable point: history through `gen` is recorded, generation
    // gen+1 is bred and evaluated, and no RNG draw happens before the next
    // iteration's bookkeeping. Anything the hook saves here resumes
    // byte-identically.
    if (checkpoint_hook_) checkpoint_hook_(*this, gen);
  }
  return population_.front();
}

// ---- Checkpointing ---------------------------------------------------------

std::string GeneticAlgorithm::config_digest() const {
  SnapshotWriter w;
  w.put_u64("population_size", config_.population_size);
  w.put_u64("generations", config_.generations);
  w.put_double("elite_fraction", config_.elite_fraction);
  w.put_double("crossover_rate", config_.crossover_rate);
  w.put_double("mutation_rate", config_.mutation_rate);
  w.put_u64("tournament_size", config_.tournament_size);
  w.put_double("complexity_weight", config_.complexity_weight);
  w.put_u64("convergence_patience", config_.convergence_patience);
  // jobs deliberately omitted: sharding never changes evolution results.
  return w.digest("ga-config");
}

void GeneticAlgorithm::save_checkpoint(SnapshotWriter& writer) const {
  writer.put("config", config_digest());
  writer.put_u64("gen_next", gen_next_);
  writer.put_double("best_so_far", best_so_far_);
  writer.put_u64("stale", stale_);
  writer.put_double("eval_best", eval_.best_fitness);
  writer.put_double("eval_mean", eval_.mean_fitness);
  writer.put_u64("eval_cache_hits", eval_.cache_hits);
  writer.put_u64("eval_evaluations", eval_.evaluations);
  writer.put("rng", rng_.save_state());
  for (const Individual& ind : population_) {
    const std::string fitness = SnapshotWriter::format_double(ind.fitness);
    writer.record("ind", {fitness, ind.evaluated ? "1" : "0",
                          ind.strategy.to_string()});
  }
  for (const GenerationStats& stats : history_) {
    writer.record(
        "hist",
        {std::to_string(stats.generation),
         SnapshotWriter::format_double(stats.best_fitness),
         SnapshotWriter::format_double(stats.mean_fitness),
         stats.best_strategy, std::to_string(stats.cache_hits),
         std::to_string(stats.evaluations)});
  }
  if (cache_ != nullptr) {
    for (const auto& [key, raw] : cache_->export_entries()) {
      writer.record("cache", {key, SnapshotWriter::format_double(raw)});
    }
  }
}

void GeneticAlgorithm::restore_checkpoint(const SnapshotReader& reader) {
  if (reader.get("config") != config_digest()) {
    throw SnapshotError(
        "checkpoint was taken under a different GA configuration (digest " +
        reader.get("config") + ", expected " + config_digest() +
        "); resuming would silently diverge");
  }
  gen_next_ = reader.get_u64("gen_next");
  best_so_far_ = reader.get_double("best_so_far");
  stale_ = reader.get_u64("stale");
  eval_.best_fitness = reader.get_double("eval_best");
  eval_.mean_fitness = reader.get_double("eval_mean");
  eval_.cache_hits = reader.get_u64("eval_cache_hits");
  eval_.evaluations = reader.get_u64("eval_evaluations");
  rng_.restore_state(reader.get("rng"));

  population_.clear();
  for (const SnapshotReader::Record* rec : reader.all("ind")) {
    if (rec->fields.size() != 3) {
      throw SnapshotError("malformed individual record");
    }
    Individual ind;
    ind.fitness = SnapshotReader::parse_double(rec->fields[0]);
    ind.evaluated = rec->fields[1] == "1";
    ind.strategy = parse_strategy(rec->fields[2]);
    population_.push_back(std::move(ind));
  }
  if (population_.empty()) {
    throw SnapshotError("checkpoint holds no population");
  }

  history_.clear();
  for (const SnapshotReader::Record* rec : reader.all("hist")) {
    if (rec->fields.size() != 6) {
      throw SnapshotError("malformed history record");
    }
    GenerationStats stats;
    stats.generation = SnapshotReader::parse_u64(rec->fields[0]);
    stats.best_fitness = SnapshotReader::parse_double(rec->fields[1]);
    stats.mean_fitness = SnapshotReader::parse_double(rec->fields[2]);
    stats.best_strategy = rec->fields[3];
    stats.cache_hits = SnapshotReader::parse_u64(rec->fields[4]);
    stats.evaluations = SnapshotReader::parse_u64(rec->fields[5]);
    history_.push_back(std::move(stats));
  }

  if (cache_ != nullptr) {
    std::vector<std::pair<std::string, double>> entries;
    for (const SnapshotReader::Record* rec : reader.all("cache")) {
      if (rec->fields.size() != 2) {
        throw SnapshotError("malformed cache record");
      }
      entries.emplace_back(rec->fields[0],
                           SnapshotReader::parse_double(rec->fields[1]));
    }
    cache_->import_entries(entries);
  }

  resumed_ = true;
}

}  // namespace caya
