#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <set>
#include <utility>

#include "eval/env_pool.h"
#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/ga.h"
#include "geneva/parser.h"
#include "layers.h"
#include "serve/orchestrator.h"
#include "stats.h"
#include "util/thread_pool.h"

namespace perfbench {

using caya::AppProtocol;
using caya::Country;

TrialDigest digest_of(const caya::TrialResult& result,
                      caya::TrialErrorKind error) {
  return {result.success,       result.client_reset,
          result.timed_out,     result.censor_events,
          result.server_amplification, error};
}

bool errored(caya::TrialErrorKind error) noexcept {
  return error != caya::TrialErrorKind::kNone &&
         error != caya::TrialErrorKind::kTimeout;
}

void Checker::expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failures_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// An input seed in [1, range] for one purpose, derived from the workload
/// seed; small enough that base + trial index never wraps.
std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose,
                     std::uint64_t range) {
  return 1 + splitmix64(splitmix64(seed) ^ purpose) % range;
}

/// Builds a substrate of this shape on the calling thread's pool shelf.
void shelve(const caya::Environment::Config& config) {
  caya::EnvironmentPool::Lease lease =
      caya::EnvironmentPool::local().acquire(config);
  lease.keep();
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double seconds_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

// ---- Table workloads ---------------------------------------------------------

struct Cell {
  std::string label;
  caya::Environment::Config base;  // seed patched per trial
  caya::ConnectionOptions conn;
  std::uint64_t base_seed = 0;
  int strategy_id = 0;   // published strategy; 0 = no evasion
  double paper = -1.0;   // the paper's success rate; -1 = not reported
};

/// One cell's outcome counts, as the program's batch runners report them.
struct CellReport {
  std::size_t successes = 0;
  std::size_t trials = 0;    // completed trials (timeouts included)
  std::size_t timeouts = 0;
  std::size_t errors = 0;

  bool operator==(const CellReport&) const = default;
};

/// A workload whose round runs every trial of every cell, in the index
/// order measure_rate uses at jobs 1, on the calling thread, timing each
/// run_supervised_trial call.
class CellWorkload : public Workload {
 public:
  CellWorkload(std::size_t trials_per_cell, std::size_t layer_trials_per_cell,
               std::string runner)
      : trials_(trials_per_cell),
        layer_trials_(layer_trials_per_cell),
        runner_(std::move(runner)) {}

  [[nodiscard]] std::size_t jobs() const noexcept override { return 1; }

  void setup() override {
    cells_ = build_cells();
    std::vector<std::uint64_t> shapes;
    for (const Cell& cell : cells_) {
      const std::uint64_t shape = caya::env_config_digest(cell.base);
      if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
        shapes.push_back(shape);
        shelve(cell.base);
      }
    }
  }

  RoundStats round(std::size_t, SpanLog* spans,
                   Latencies& op_us) override {
    RoundStats stats;
    stats.results.reserve(cells_.size() * trials_);
    const caya::SupervisionPolicy policy;
    const std::uint32_t root =
        spans != nullptr ? spans->open("round", SpanLog::kNone, 0)
                         : SpanLog::kNone;
    const std::int64_t start = now_ns();
    for (const Cell& cell : cells_) {
      for (std::size_t t = 0; t < trials_; ++t) {
        TrialSpec spec{cell.base, &cell.conn, t};
        spec.config.seed = cell.base_seed + t;
        const std::int64_t t0 = now_ns();
        TrialDigest digest;
        if (spans == nullptr) {
          const caya::SupervisedOutcome outcome =
              caya::run_supervised_trial(spec.config, cell.conn, policy, t);
          digest = digest_of(outcome.result, outcome.error);
        } else {
          digest =
              prober_.probe(spec, spans, root, stats.results.size()).result;
        }
        op_us.add(static_cast<double>(now_ns() - t0) / 1e3);
        ++stats.attempted;
        if (errored(digest.error)) {
          ++stats.failed;
        } else {
          ++stats.trials;
        }
        stats.results.push_back(digest);
      }
    }
    stats.seconds = seconds_between(start, now_ns());
    if (spans != nullptr) spans->close(root);
    stats.units = stats.trials;
    stats.fingerprint = fingerprint(stats.results);
    return stats;
  }

  std::size_t check(const RoundStats& timed, Checker& checker) override {
    reference_ = reference(1);
    const std::vector<CellReport> mine = per_cell(timed.results);
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      checker.expect(mine[c] == reference_[c],
                     cells_[c].label + ": timed trials agree with " + runner_);
    }
    extra_checks(mine, checker);
    return cells_.size() * trials_;
  }

  std::vector<TrialSpec> layer_specs() override {
    std::vector<TrialSpec> specs;
    for (const Cell& cell : cells_) {
      for (std::size_t t = 0; t < layer_trials_ && t < trials_; ++t) {
        TrialSpec spec{cell.base, &cell.conn, t};
        spec.config.seed = cell.base_seed + t;
        specs.push_back(spec);
      }
    }
    return specs;
  }

  std::vector<std::string> strategy_texts() override {
    std::set<int> ids;
    for (const Cell& cell : cells_) {
      if (cell.strategy_id != 0) ids.insert(cell.strategy_id);
    }
    std::vector<std::string> texts;
    for (const int id : ids) texts.push_back(caya::published_strategy(id).dsl);
    return texts;
  }

  void trace_metrics(const TraceContext& context, MetricValues& out,
                     Checker& checker) override {
    // The program's own runner at jobs 2: parallel efficiency, and the
    // byte-identity of its reports across jobs values. The first pass
    // shelves substrates on the pool workers; the second is timed.
    const std::vector<CellReport> cold = reference(2);
    const std::int64_t start = now_ns();
    const std::vector<CellReport> parallel = reference(2);
    const double parallel_s = seconds_between(start, now_ns());
    checker.expect(cold == reference_ && parallel == reference_,
                   runner_ + " reports are identical at jobs 1 and 2");
    out["util.parallel_eff"] = context.reference_round_s / (2.0 * parallel_s);
  }

 protected:
  [[nodiscard]] virtual std::vector<Cell> build_cells() const = 0;
  /// Per-cell reports of the program's own batch runner at `jobs`.
  [[nodiscard]] virtual std::vector<CellReport> reference(std::size_t jobs) = 0;
  virtual void extra_checks(const std::vector<CellReport>&, Checker&) {}

  [[nodiscard]] std::size_t trials_per_cell() const noexcept {
    return trials_;
  }
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }

 private:
  [[nodiscard]] std::vector<CellReport> per_cell(
      const std::vector<TrialDigest>& results) const {
    std::vector<CellReport> reports(cells_.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      CellReport& r = reports[i / trials_];
      const TrialDigest& d = results[i];
      if (errored(d.error)) {
        ++r.errors;
        continue;
      }
      ++r.trials;
      if (d.success) ++r.successes;
      if (d.timed_out) ++r.timeouts;
    }
    return reports;
  }

  static std::string fingerprint(const std::vector<TrialDigest>& results) {
    // FNV-1a over every compared field, in index order.
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    for (const TrialDigest& d : results) {
      mix(d.success | (d.client_reset << 1) | (d.timed_out << 2));
      mix(d.censor_events);
      mix(static_cast<std::uint64_t>(std::llround(d.amplification * 1e6)));
      mix(static_cast<std::uint64_t>(d.error));
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

  std::size_t trials_;
  std::size_t layer_trials_;
  std::string runner_;  // the batch runner the checks compare against
  std::vector<Cell> cells_;
  std::vector<CellReport> reference_;
  Prober prober_;
};

/// rates_table2: every cell of the Table 2 regeneration plus a
/// Turkmenistan/HTTP row, clean profile.
class RatesWorkload final : public CellWorkload {
 public:
  static constexpr std::size_t kTrialsPerCell = 200;
  static constexpr std::size_t kLayerTrialsPerCell = 30;

  explicit RatesWorkload(std::uint64_t seed)
      : CellWorkload(kTrialsPerCell, kLayerTrialsPerCell,
                     "measure_rate_supervised"),
        base_seed_(derive(seed, 1, 10'000'000) * 1000) {}

 protected:
  std::vector<Cell> build_cells() const override {
    std::vector<Cell> cells;
    const auto add = [&](Country country, AppProtocol protocol, int id,
                         double paper) {
      Cell& cell = cells.emplace_back();
      cell.label = std::string(caya::to_string(country)) + "/" +
                   std::string(caya::to_string(protocol)) + " " +
                   (id == 0 ? std::string("no evasion")
                            : "published " + std::to_string(id));
      cell.base.country = country;
      cell.base.protocol = protocol;
      caya::apply_profile(caya::ImpairmentProfile::kClean, cell.base);
      if (id != 0) cell.conn.server_strategy = caya::parsed_strategy(id);
      cell.base_seed = base_seed_ + (cells.size() - 1) * 1000;
      cell.strategy_id = id;
      cell.paper = paper;
    };
    // Table 2's China block: the no-evasion row, then every published
    // strategy with a China number, each across all five protocols.
    constexpr double kChinaBaseline[] = {0.02, 0.03, 0.03, 0.03, 0.26};
    const auto& protocols = caya::all_protocols();
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      add(Country::kChina, protocols[i], 0, kChinaBaseline[i]);
    }
    for (const caya::PublishedStrategy& s : caya::published_strategies()) {
      if (s.china_reported.empty()) continue;
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        add(Country::kChina, protocols[i], s.id, s.china_reported[i]);
      }
    }
    // The other countries: no evasion (blocked in the paper), then each
    // strategy the paper reports there.
    struct Row {
      Country country;
      AppProtocol protocol;
      double caya::PublishedStrategy::*reported;
    };
    const Row rows[] = {
        {Country::kIndia, AppProtocol::kHttp,
         &caya::PublishedStrategy::india_http_reported},
        {Country::kIran, AppProtocol::kHttp,
         &caya::PublishedStrategy::iran_http_reported},
        {Country::kIran, AppProtocol::kHttps,
         &caya::PublishedStrategy::iran_https_reported},
        {Country::kKazakhstan, AppProtocol::kHttp,
         &caya::PublishedStrategy::kazakhstan_http_reported},
    };
    for (const Row& row : rows) {
      add(row.country, row.protocol, 0, 0.0);
      for (const caya::PublishedStrategy& s : caya::published_strategies()) {
        if (s.*row.reported >= 0) add(row.country, row.protocol, s.id, s.*row.reported);
      }
    }
    // Turkmenistan has no paper number: no evasion and window reduction.
    add(Country::kTurkmenistan, AppProtocol::kHttp, 0, -1.0);
    add(Country::kTurkmenistan, AppProtocol::kHttp, 8, -1.0);
    return cells;
  }

  std::vector<CellReport> reference(std::size_t jobs) override {
    std::vector<CellReport> reports;
    for (const Cell& cell : cells()) {
      caya::RateOptions options;
      options.trials = trials_per_cell();
      options.base_seed = cell.base_seed;
      options.jobs = jobs;
      // measure_rate returns this report's rate.
      const caya::RateReport report = caya::measure_rate_supervised(
          cell.base.country, cell.base.protocol, cell.conn.server_strategy,
          options);
      reports.push_back({report.rate.successes(), report.rate.trials(),
                         report.timeouts, report.errors});
    }
    return reports;
  }

  void extra_checks(const std::vector<CellReport>& mine,
                    Checker& checker) override {
    // Within a band of the paper's number: the worst China gap EXPERIMENTS.md
    // records (8 points) plus 4.5 binomial standard deviations at this cell
    // size, so a seed change or a deliberate RNG rework does not trip it
    // while a broken censor or strategy does.
    for (std::size_t c = 0; c < cells().size(); ++c) {
      const Cell& cell = cells()[c];
      if (cell.paper < 0 || mine[c].trials == 0) continue;
      const double rate = static_cast<double>(mine[c].successes) /
                          static_cast<double>(mine[c].trials);
      const double sigma =
          std::sqrt(cell.paper * (1.0 - cell.paper) /
                    static_cast<double>(mine[c].trials));
      const double band = 0.08 + 4.5 * sigma;
      char what[160];
      std::snprintf(what, sizeof(what),
                    "%s: %.1f%% within %.1f points of the paper's %.0f%%",
                    cell.label.c_str(), rate * 100, band * 100,
                    cell.paper * 100);
      checker.expect(std::fabs(rate - cell.paper) <= band, what);
    }
  }

 private:
  std::uint64_t base_seed_;
};

/// sweep_impaired: measure_impairment_sweep on China/HTTP over the loss,
/// burst and reorder axes at the values `caya sweep` uses.
class SweepWorkload final : public CellWorkload {
 public:
  static constexpr std::size_t kTrialsPerCell = 100;
  static constexpr std::size_t kLayerTrialsPerCell = 8;

  explicit SweepWorkload(std::uint64_t seed)
      : CellWorkload(kTrialsPerCell, kLayerTrialsPerCell,
                     "measure_impairment_sweep"),
        base_seed_(derive(seed, 2, 1'000'000)) {}

 protected:
  struct Axis {
    caya::SweepAxis axis;
    std::vector<double> values;
  };

  static const std::vector<Axis>& axes() {
    static const std::vector<Axis> kAxes = {
        {caya::SweepAxis::kLoss, {0.0, 0.01, 0.02, 0.05, 0.1, 0.2}},
        {caya::SweepAxis::kBurst, {0.0, 0.01, 0.02, 0.05, 0.1, 0.2}},
        {caya::SweepAxis::kReorder, {0.0, 0.05, 0.1, 0.25, 0.5}},
    };
    return kAxes;
  }

  static std::vector<std::pair<std::string, std::optional<caya::Strategy>>>
  strategies() {
    return {{"no evasion", std::nullopt},
            {"published 1", caya::parsed_strategy(1)},
            {"published 6", caya::parsed_strategy(6)}};
  }

  std::vector<Cell> build_cells() const override {
    // Axis by axis, then strategy-major: the order measure_impairment_sweep
    // reduces its flattened batch in.
    constexpr int kIds[] = {0, 1, 6};
    const auto named = strategies();
    std::vector<Cell> cells;
    for (const Axis& axis : axes()) {
      for (std::size_t s = 0; s < named.size(); ++s) {
        for (const double value : axis.values) {
          Cell& cell = cells.emplace_back();
          char label[96];
          std::snprintf(label, sizeof(label), "China/HTTP %s %s=%g",
                        named[s].first.c_str(),
                        std::string(caya::to_string(axis.axis)).c_str(), value);
          cell.label = label;
          cell.base.country = Country::kChina;
          cell.base.protocol = AppProtocol::kHttp;
          caya::apply_profile(caya::ImpairmentProfile::kClean, cell.base);
          cell.base.net.link = caya::sweep_link_config(axis.axis, value);
          cell.conn.server_strategy = named[s].second;
          cell.base_seed = base_seed_;
          cell.strategy_id = kIds[s];
        }
      }
    }
    return cells;
  }

  std::vector<CellReport> reference(std::size_t jobs) override {
    caya::RateOptions options;
    options.trials = trials_per_cell();
    options.base_seed = base_seed_;
    options.jobs = jobs;
    const auto named = strategies();
    std::vector<CellReport> reports;
    for (const Axis& axis : axes()) {
      const std::vector<caya::SweepCurve> curves =
          caya::measure_impairment_sweep(Country::kChina, AppProtocol::kHttp,
                                         named, axis.axis, axis.values,
                                         options);
      for (const caya::SweepCurve& curve : curves) {
        for (const caya::SweepPoint& point : curve.points) {
          reports.push_back({point.rate.successes(), point.rate.trials(),
                             point.timeouts, point.errors});
        }
      }
    }
    return reports;
  }

 private:
  std::uint64_t base_seed_;
};

// ---- evolve_china_http ---------------------------------------------------------

/// GA campaigns on China/HTTP with fitness built as `caya evolve` builds
/// it: supervised, 20 trials per score, a shared FitnessCache. A round runs
/// a few campaigns, each with its own seeds, so one run's figures do not
/// hang on what a single campaign happens to evolve.
class EvolveWorkload final : public Workload {
 public:
  static constexpr std::size_t kCampaigns = 3;
  static constexpr std::size_t kPopulation = 200;
  static constexpr std::size_t kGenerations = 20;
  static constexpr std::size_t kTrialsPerScore = 20;
  static constexpr std::size_t kLayerStrategies = 24;

  explicit EvolveWorkload(std::uint64_t seed) {
    for (std::size_t k = 0; k < kCampaigns; ++k) {
      campaigns_.push_back({derive(seed, 10 + 2 * k, 1'000'000),
                            derive(seed, 11 + 2 * k, 1'000'000'000)});
    }
  }

  [[nodiscard]] std::size_t jobs() const noexcept override { return 2; }

  void setup() override {
    (void)caya::ThreadPool::shared();
    shelve(trial_config(campaigns_.front().fitness_seed));
  }

  RoundStats round(std::size_t jobs, SpanLog* spans,
                   Latencies& op_us) override {
    RoundStats stats;
    const bool collect = seen_.empty();
    history_.clear();
    for (std::size_t k = 0; k < kCampaigns; ++k) {
      const Campaign c = campaign(k, jobs, spans, op_us, collect);
      stats.seconds += c.seconds;
      stats.attempted += c.calls;
      stats.failed += c.quarantined;
      stats.trials += (c.calls - c.quarantined) * kTrialsPerScore;
      stats.units += c.history.size();
      stats.fingerprint += c.fingerprint;
      history_.insert(history_.end(), c.history.begin(), c.history.end());
    }
    return stats;
  }

  std::size_t check(const RoundStats& timed, Checker& checker) override {
    // The first campaign again at jobs 1.
    Latencies discard(0);
    const Campaign serial = campaign(0, 1, nullptr, discard, false);
    checker.expect(
        timed.fingerprint.compare(0, serial.fingerprint.size(),
                                  serial.fingerprint) == 0,
        "GA history is byte-identical at jobs 1 and jobs 2");
    checker.expect(!serial.history.empty(), "the GA records a history");
    return (serial.calls - serial.quarantined) * kTrialsPerScore;
  }

  std::vector<TrialSpec> layer_specs() override {
    std::vector<TrialSpec> specs;
    conns_.clear();
    for (const auto& [text, k] : sample()) {
      caya::ConnectionOptions& conn = conns_.emplace_back();
      conn.server_strategy = caya::parse_strategy(text);
      for (std::size_t t = 0; t < kTrialsPerScore; ++t) {
        specs.push_back(
            {trial_config(campaigns_[k].fitness_seed + t), &conn, t});
      }
    }
    return specs;
  }

  std::vector<std::string> strategy_texts() override {
    std::vector<std::string> texts;
    for (const auto& [text, k] : sample()) texts.push_back(text);
    return texts;
  }

  void trace_metrics(const TraceContext& context, MetricValues& out,
                     Checker&) override {
    out["geneva.fitness_ms_p50"] = percentile(fitness_ms_, 50.0);
    out["geneva.fitness_ms_p99"] = percentile(fitness_ms_, 99.0);
    out["geneva.ga_self_frac"] = median(self_fracs_);
    std::size_t hits = 0;
    std::size_t evaluations = 0;
    for (const caya::GenerationStats& g : history_) {
      hits += g.cache_hits;
      evaluations += g.evaluations;
    }
    out["geneva.cache_hit_frac"] =
        hits + evaluations == 0
            ? 0.0
            : static_cast<double>(hits) /
                  static_cast<double>(hits + evaluations);
    out["geneva.evaluations"] = static_cast<double>(evaluations);
    // The reference pass is the first campaign at jobs 1.
    out["util.parallel_eff"] =
        context.reference_round_s / (2.0 * median(first_campaign_s_));
  }

 private:
  struct Seeds {
    std::uint64_t fitness_seed;
    std::uint64_t ga_seed;
  };

  struct Campaign {
    double seconds = 0.0;
    std::size_t calls = 0;
    std::size_t quarantined = 0;
    std::vector<caya::GenerationStats> history;
    std::string fingerprint;
  };

  Campaign campaign(std::size_t k, std::size_t jobs, SpanLog* spans,
                    Latencies& op_us, bool collect) {
    const Seeds& seeds = campaigns_[k];
    auto quarantine = std::make_shared<caya::Quarantine>(/*probe_interval=*/3);
    const caya::FitnessFn inner = caya::make_supervised_fitness(
        Country::kChina, AppProtocol::kHttp, kTrialsPerScore,
        seeds.fitness_seed, quarantine);
    Campaign c;
    std::mutex mu;  // guards everything the wrapper below writes
    std::vector<std::pair<std::int64_t, std::int64_t>> fitness_spans;
    const std::uint32_t root =
        spans != nullptr ? spans->open("campaign", SpanLog::kNone, k)
                         : SpanLog::kNone;
    caya::FitnessFn fitness = [&](const caya::Strategy& strategy) {
      const std::int64_t t0 = now_ns();
      const double raw = inner(strategy);
      const std::int64_t t1 = now_ns();
      const std::lock_guard<std::mutex> lock(mu);
      op_us.add(static_cast<double>(t1 - t0) / 1e3);
      if (raw == caya::kQuarantinedFitness) ++c.quarantined;
      if (spans != nullptr) {
        spans->add("fitness", root, c.calls, t0, t1);
        fitness_spans.emplace_back(t0, t1);
      }
      if (collect) seen_.emplace(strategy.to_string(), k);
      ++c.calls;
      return raw;
    };
    caya::GaConfig config;
    config.population_size = kPopulation;
    config.generations = kGenerations;
    config.jobs = jobs;
    caya::GeneticAlgorithm ga(caya::GeneConfig{}, config, std::move(fitness),
                              caya::Rng(seeds.ga_seed));
    ga.set_fitness_cache(
        std::make_shared<caya::FitnessCache>(caya::fitness_cache_digest(
            Country::kChina, AppProtocol::kHttp, kTrialsPerScore,
            seeds.fitness_seed)));

    const std::int64_t start = now_ns();
    (void)ga.run();
    const std::int64_t end = now_ns();
    if (spans != nullptr) {
      spans->close(root);
      for (const auto& [t0, t1] : fitness_spans) {
        fitness_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
      self_fracs_.push_back(
          1.0 - static_cast<double>(covered_ns(fitness_spans, start, end)) /
                    static_cast<double>(end - start));
    }

    c.seconds = seconds_between(start, end);
    if (k == 0 && spans == nullptr && jobs == this->jobs()) {
      first_campaign_s_.push_back(c.seconds);
    }
    c.history = ga.history();
    c.fingerprint = "campaign " + std::to_string(k) + '\n';
    for (const caya::GenerationStats& g : c.history) {
      c.fingerprint += std::to_string(g.generation) + ' ' +
                       hexfloat(g.best_fitness) + ' ' +
                       hexfloat(g.mean_fitness) + ' ' + g.best_strategy + ' ' +
                       std::to_string(g.cache_hits) + ' ' +
                       std::to_string(g.evaluations) + '\n';
    }
    return c;
  }

  static caya::Environment::Config trial_config(std::uint64_t seed) {
    caya::Environment::Config config;
    config.country = Country::kChina;
    config.protocol = AppProtocol::kHttp;
    config.seed = seed;
    return config;
  }

  /// Evenly spaced canonical strategies, with the campaign that evaluated
  /// each, from those the first round evaluated (sorted, so the sample is
  /// a function of the seed).
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> sample()
      const {
    const std::vector<std::pair<std::string, std::size_t>> all(seen_.begin(),
                                                               seen_.end());
    std::vector<std::pair<std::string, std::size_t>> picked;
    const std::size_t want = std::min(kLayerStrategies, all.size());
    for (std::size_t i = 0; i < want; ++i) {
      picked.push_back(all[i * all.size() / want]);
    }
    return picked;
  }

  std::vector<Seeds> campaigns_;
  /// Canonical strategy -> the first campaign that evaluated it.
  std::map<std::string, std::size_t> seen_;
  std::vector<caya::GenerationStats> history_;  // the last round's campaigns
  std::vector<double> fitness_ms_;
  std::vector<double> self_fracs_;
  std::vector<double> first_campaign_s_;  // untraced, at jobs()
  std::deque<caya::ConnectionOptions> conns_;  // stable addresses for specs
};

// ---- serve_drift ---------------------------------------------------------------

/// An Orchestrator on China/HTTP, chain published 7 -> 6 -> 2 ->
/// passthrough, with the GFW regime flipping at half the flows.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kFlows = 20'000;
  static constexpr std::size_t kLayerFlowStride = 25;

  explicit ServeWorkload(std::uint64_t seed)
      : base_seed_(derive(seed, 5, 1'000'000)) {}

  [[nodiscard]] std::size_t jobs() const noexcept override { return 2; }

  void setup() override {
    tiers_.clear();
    for (const int id : {7, 6, 2}) {
      tiers_.push_back(
          {"published " + std::to_string(id), caya::parsed_strategy(id)});
    }
    config_ = caya::ServeConfig{};
    config_.country = Country::kChina;
    config_.protocol = AppProtocol::kHttp;
    config_.flows = kFlows;
    config_.base_seed = base_seed_;
    config_.breaker_seed = base_seed_;
    config_.jobs = jobs();
    config_.regime_flip_at = kFlows / 2;
    (void)caya::ThreadPool::shared();
    shelve(flow_config(0));
    shelve(flow_config(kFlows - 1));
  }

  RoundStats round(std::size_t jobs, SpanLog* spans,
                   Latencies& op_us) override {
    caya::ServeConfig config = config_;
    config.jobs = jobs;
    caya::Orchestrator orch(config, tiers_);
    const std::uint32_t root =
        spans != nullptr ? spans->open("serve", SpanLog::kNone, 0)
                         : SpanLog::kNone;
    std::int64_t last = 0;
    std::size_t chunk = 0;
    orch.set_checkpoint_hook([&](const caya::Orchestrator&, std::size_t) {
      const std::int64_t t = now_ns();
      op_us.add(static_cast<double>(t - last) / 1e3);
      if (spans != nullptr) {
        spans->add("chunk", root, chunk, last, t);
        chunk_ms_.push_back(static_cast<double>(t - last) / 1e6);
      }
      ++chunk;
      last = t;
    });
    const std::int64_t start = now_ns();
    last = start;
    report_ = orch.run();
    const std::int64_t end = now_ns();
    if (spans != nullptr) spans->close(root);

    RoundStats stats;
    stats.seconds = seconds_between(start, end);
    stats.attempted = report_.flows;
    for (const caya::TierStats& tier : report_.tiers) {
      stats.failed += tier.errors;
    }
    stats.trials = report_.flows - stats.failed;
    stats.units = report_.flows;
    for (const caya::HealthEvent& event : report_.events) {
      stats.fingerprint += caya::to_line(event) + '\n';
    }
    stats.fingerprint += caya::render_scoreboard(orch);
    stats.fingerprint += "waste " + std::to_string(report_.speculated_waste) +
                         " mispredictions " +
                         std::to_string(report_.mispredictions) + '\n';
    return stats;
  }

  std::size_t check(const RoundStats& timed, Checker& checker) override {
    Latencies discard(0);
    const RoundStats serial = round(1, nullptr, discard);
    checker.expect(serial.fingerprint == timed.fingerprint,
                   "serve events and scoreboard are byte-identical at jobs 1 "
                   "and jobs 2");
    bool flipped = false;
    bool failed_over = false;
    for (const caya::HealthEvent& event : report_.events) {
      flipped |= event.kind == caya::HealthEventKind::kRegimeFlip;
      failed_over |= event.kind == caya::HealthEventKind::kFailover;
    }
    checker.expect(flipped && failed_over,
                   "the regime flip trips a breaker and fails over");
    return serial.trials;
  }

  std::vector<TrialSpec> layer_specs() override {
    // The serving tier of each flow, from the failover events: every change
    // of serving tier emits one.
    conns_.clear();
    for (const caya::ServeTier& tier : tiers_) {
      conns_.emplace_back().server_strategy = tier.strategy;
    }
    conns_.emplace_back();  // passthrough
    const auto tier_index = [&](const std::string& name) {
      for (std::size_t t = 0; t < tiers_.size(); ++t) {
        if (tiers_[t].name == name) return t;
      }
      return tiers_.size();
    };
    std::vector<TrialSpec> specs;
    std::size_t tier = 0;
    std::size_t next_event = 0;
    const auto& events = report_.events;
    for (std::size_t flow = 0; flow < kFlows; ++flow) {
      for (; next_event < events.size() && events[next_event].flow <= flow;
           ++next_event) {
        if (events[next_event].kind == caya::HealthEventKind::kFailover) {
          tier = tier_index(events[next_event].tier);
        }
      }
      if (flow % kLayerFlowStride == 0) {
        specs.push_back({flow_config(flow), &conns_[tier], flow});
      }
    }
    return specs;
  }

  std::vector<std::string> strategy_texts() override {
    std::vector<std::string> texts;
    for (const caya::ServeTier& tier : tiers_) {
      texts.push_back(tier.strategy->to_string());
    }
    return texts;
  }

  void trace_metrics(const TraceContext& context, MetricValues& out,
                     Checker&) override {
    out["serve.chunk_ms_p50"] = percentile(chunk_ms_, 50.0);
    out["serve.chunk_ms_p99"] = percentile(chunk_ms_, 99.0);
    out["serve.waste_frac"] =
        static_cast<double>(report_.speculated_waste) /
        static_cast<double>(report_.flows);
    out["serve.mispredictions"] =
        static_cast<double>(report_.mispredictions);
    // The same flows through measure_rate with tier 0's strategy and no
    // orchestration.
    caya::RateOptions options;
    options.trials = kFlows;
    options.base_seed = base_seed_;
    options.jobs = jobs();
    std::vector<double> seconds;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t start = now_ns();
      (void)caya::measure_rate(Country::kChina, AppProtocol::kHttp,
                               tiers_.front().strategy, options);
      seconds.push_back(seconds_between(start, now_ns()));
    }
    out["serve.overhead_frac"] =
        1.0 - median(seconds) / context.untraced_round_s;
    out["util.parallel_eff"] =
        context.reference_round_s / (2.0 * context.untraced_round_s);
  }

 private:
  [[nodiscard]] caya::Environment::Config flow_config(std::size_t flow) const {
    caya::Environment::Config config;
    config.country = config_.country;
    config.protocol = config_.protocol;
    config.seed = base_seed_ + flow;
    config.gfw_regime = flow >= config_.regime_flip_at ? config_.regime_after
                                                       : config_.regime_before;
    return config;
  }

  std::uint64_t base_seed_;
  caya::ServeConfig config_;
  std::vector<caya::ServeTier> tiers_;
  caya::ServeReport report_;
  std::vector<double> chunk_ms_;
  std::deque<caya::ConnectionOptions> conns_;  // one per tier
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      "rates_table2", "sweep_impaired", "evolve_china_http", "serve_drift"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "rates_table2") return std::make_unique<RatesWorkload>(seed);
  if (name == "sweep_impaired") return std::make_unique<SweepWorkload>(seed);
  if (name == "evolve_china_http") {
    return std::make_unique<EvolveWorkload>(seed);
  }
  if (name == "serve_drift") return std::make_unique<ServeWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
