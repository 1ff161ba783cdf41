// Success-rate measurement over repeated trials — the machinery behind the
// Table 2 reproduction and the GA's fitness function — plus the robustness
// harness: named impairment profiles and success-rate-vs-impairment sweeps.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/parallel.h"
#include "eval/trial.h"
#include "geneva/ga.h"
#include "util/stats.h"

namespace caya {

/// Named path/censor conditions for the robustness experiments. Profiles map
/// onto the paper's deployment reality: `clean` is the calibrated Table 2
/// substrate; `lossy` and `bursty` reproduce the degraded paths measurement
/// work reports between vantage points and far-away servers; `flaky-censor`
/// models middlebox failover (a mid-connection state flush and a restart
/// outage), the condition under which the GFW's resynchronization machinery
/// is entered in the wild.
enum class ImpairmentProfile { kClean, kLossy, kBursty, kFlakyCensor };

[[nodiscard]] std::string_view to_string(ImpairmentProfile profile) noexcept;
[[nodiscard]] const std::vector<ImpairmentProfile>& all_profiles();

/// Applies `profile` to an environment config (link impairments and, for
/// flaky-censor, the censor fault schedule).
void apply_profile(ImpairmentProfile profile, Environment::Config& config);

struct RateOptions {
  std::size_t trials = 200;
  std::uint64_t base_seed = 1000;
  OsProfile client_os = OsProfile::linux_default();
  ImpairmentProfile profile = ImpairmentProfile::kClean;
  /// Trials are sharded across this many workers of the shared pool (1 =
  /// serial, 0 = hardware concurrency). Each trial's Environment is seeded
  /// from base_seed + index and results are reduced in index order, so
  /// every jobs value yields byte-identical rates.
  std::size_t jobs = 1;
  /// Retry / fault-injection / quarantine policy for the supervised runners.
  /// The defaults are inert on a healthy substrate: a batch that raises no
  /// errors behaves byte-identically to the unsupervised path.
  SupervisionPolicy supervision;
};

/// Everything a supervised batch learned, beyond the bare success rate:
/// errored trials are *excluded* from `rate` (an infrastructure failure is
/// not a censorship result) and accounted for here instead, so sweeps and
/// campaigns can report per-cell coverage honestly.
struct RateReport {
  RateCounter rate;            // over trials that completed (incl. timeouts)
  std::size_t timeouts = 0;    // completed trials cut off by deadline/cap
  std::size_t errors = 0;      // trials that exhausted their retry budget
  std::size_t retries = 0;     // extra attempts spent recovering trials
  std::array<std::size_t, kTrialErrorKinds> error_counts{};  // by kind
  bool quarantined = false;    // hit `quarantine_after` consecutive errors

  /// The error class that dominated the batch's failures — what a
  /// quarantine entry records as its reason. kNone when the batch raised no
  /// errors (timeouts are legitimate results, not errors).
  [[nodiscard]] TrialErrorKind dominant_error() const noexcept;

  /// Trials the batch was asked to run (completed + errored).
  [[nodiscard]] std::size_t attempted() const noexcept {
    return rate.trials() + errors;
  }
  /// Fraction of requested trials that produced a usable result.
  [[nodiscard]] double coverage() const noexcept {
    const std::size_t n = attempted();
    return n == 0 ? 0.0 : static_cast<double>(rate.trials()) /
                              static_cast<double>(n);
  }
};

/// Shared registry of strategies poisoned by consecutive trial errors.
/// Thread-safe: the GA's parallel fitness evaluations consult and update it
/// concurrently. Keys are canonical strategy strings.
///
/// Quarantine is releasable, not a banishment list: with a non-zero
/// probe_interval, every probe_interval-th *denied* lookup of a key is
/// admitted as a half-open probe — the caller re-evaluates the strategy for
/// real and reports the verdict back via release() (probe passed; the entry
/// is removed and `released` counts it) or add() (probe failed;
/// re-quarantined). probe_interval == 0 keeps the legacy permanent
/// behaviour. Probe admission is a pure function of the per-key denial
/// counter, so campaigns stay deterministic across --jobs and resumes.
class Quarantine {
 public:
  explicit Quarantine(std::size_t probe_interval = 0) noexcept
      : probe_interval_(probe_interval) {}

  [[nodiscard]] bool contains(const std::string& strategy_key) const;
  /// Adds (or re-adds, resetting the denial counter) with an optional
  /// reason — typically to_string(report.dominant_error()).
  void add(const std::string& strategy_key, std::string reason = "");
  /// Admit-or-deny for a key known to be quarantined: true when this lookup
  /// should run a half-open probe instead of scoring the sentinel. Counts
  /// the denial otherwise. Always false with probe_interval == 0.
  [[nodiscard]] bool should_probe(const std::string& strategy_key);
  /// Removes a key after a successful probe; counted in released().
  void release(const std::string& strategy_key);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t released() const;
  /// Quarantined keys, sorted (deterministic render order).
  [[nodiscard]] std::vector<std::string> entries() const;

  /// Per-key detail for footers and scoreboards, sorted by key.
  struct Status {
    std::string key;
    std::string reason;
    std::size_t denied = 0;  // sentinel-scored lookups since (re-)add
    std::size_t probes = 0;  // half-open probes granted so far
  };
  [[nodiscard]] std::vector<Status> statuses() const;

 private:
  struct State {
    std::string reason;
    std::size_t denied = 0;
    std::size_t probes = 0;
  };
  mutable std::mutex mutex_;
  std::size_t probe_interval_;
  std::unordered_map<std::string, State> keys_;
  std::size_t released_ = 0;
};

/// Sentinel fitness assigned to quarantined strategies: far below any real
/// score (real fitness is a 0..100 success percentage minus a small
/// complexity penalty), so selection weeds the strategy out without the
/// campaign aborting.
inline constexpr double kQuarantinedFitness = -100.0;

/// Runs `trials` independent connections (each on a freshly reset
/// substrate, so censor state never leaks) and reports the observed success
/// rate.
[[nodiscard]] RateCounter measure_rate(Country country, AppProtocol protocol,
                                       const std::optional<Strategy>& strategy,
                                       const RateOptions& options = {});

/// Supervised variant: every trial runs through run_supervised_trial, so a
/// crashing or injected-fault trial is retried / counted instead of
/// propagating; the report carries error and coverage accounting. On a
/// healthy substrate the rate is byte-identical to measure_rate's.
[[nodiscard]] RateReport measure_rate_supervised(
    Country country, AppProtocol protocol,
    const std::optional<Strategy>& strategy, const RateOptions& options = {});

/// Geneva fitness: the success rate (x100) of `strategy` as a server-side
/// defense over `trials` connections, or its mean across `profiles` (an
/// empty list is the clean link; each profile runs its own disjoint block
/// of `trials` seeds) to evolve strategies that keep working on degraded
/// paths and across censor failovers. Trials run under `policy` (retries +
/// error accounting); a strategy whose batch trips quarantine scores
/// kQuarantinedFitness instead of aborting the GA, and a non-null
/// `quarantine` registers it so every later evaluation short-circuits. On a
/// healthy substrate the clean-link score is measure_rate's rate x100.
/// `jobs` shards the connections (keep 1 when the GA itself runs with
/// jobs > 1 — nested parallel fitness falls back to inline execution on
/// pool workers anyway).
[[nodiscard]] FitnessFn make_supervised_fitness(
    Country country, AppProtocol protocol, std::size_t trials,
    std::uint64_t base_seed, std::shared_ptr<Quarantine> quarantine,
    SupervisionPolicy policy = {},
    std::vector<ImpairmentProfile> profiles = {}, std::size_t jobs = 1);

/// Environment-config digest for FitnessCache keys: two fitness functions
/// built from the same (country, protocol, trials, base_seed, profiles)
/// score a given strategy identically, so they may share cache entries;
/// anything else must not. Pass the same profiles list given to
/// make_supervised_fitness.
[[nodiscard]] std::string fitness_cache_digest(
    Country country, AppProtocol protocol, std::size_t trials,
    std::uint64_t base_seed,
    const std::vector<ImpairmentProfile>& profiles = {});

// ---- Impairment sweeps ----------------------------------------------------

/// The impairment dimension a sweep varies.
enum class SweepAxis {
  kLoss,     // uniform per-traversal loss probability on all four lanes
  kBurst,    // Gilbert–Elliott p(good->bad); bad-state loss fixed at 0.75
  kReorder,  // jitter probability on all four lanes (2–12 ms spread)
};

[[nodiscard]] std::string_view to_string(SweepAxis axis) noexcept;

/// Builds the link configuration for one sweep point.
[[nodiscard]] LinkModel::Config sweep_link_config(SweepAxis axis,
                                                  double value);

struct SweepPoint {
  double value = 0.0;          // the axis setting
  RateCounter rate;            // app-level success over completed trials
  std::size_t timeouts = 0;    // trials cut off by the deadline/event cap
  std::size_t errors = 0;      // trials lost to errors after retries
  std::size_t retries = 0;     // extra attempts spent recovering trials
  bool quarantined = false;    // the cell's batch tripped quarantine
  std::string quarantine_reason;  // dominant error class when quarantined
};

struct SweepCurve {
  std::string strategy_name;
  std::vector<SweepPoint> points;
};

/// Measures cells [first, first + count) of a sweep as one supervised
/// batch. Cells are numbered strategy-major: cell c is
/// strategies[c / values.size()] at values[c % values.size()]. A point does
/// not depend on which batch measured it, so a sweep resumed from a
/// checkpoint of its first cells completes byte-identically.
[[nodiscard]] std::vector<SweepPoint> measure_sweep_cells(
    Country country, AppProtocol protocol,
    const std::vector<std::pair<std::string, std::optional<Strategy>>>&
        strategies,
    SweepAxis axis, const std::vector<double>& values,
    const RateOptions& options, std::size_t first, std::size_t count);

/// Success-rate-vs-impairment curves: for each named strategy, measures the
/// success rate at every axis value. Deterministic for a fixed base_seed.
/// Errored trials never abort the sweep: the table completes with per-cell
/// error/coverage counts in the SweepPoints.
[[nodiscard]] std::vector<SweepCurve> measure_impairment_sweep(
    Country country, AppProtocol protocol,
    const std::vector<std::pair<std::string, std::optional<Strategy>>>&
        strategies,
    SweepAxis axis, const std::vector<double>& values,
    const RateOptions& options = {});

/// Renders curves as an aligned text table (axis value columns x strategy
/// rows), the format bench_robustness_sweeps and `caya sweep` print.
[[nodiscard]] std::string render_sweep(const std::vector<SweepCurve>& curves,
                                       SweepAxis axis);

}  // namespace caya
