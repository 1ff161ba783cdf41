#include "eval/rates.h"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/fnv.h"

namespace caya {

std::string_view to_string(ImpairmentProfile profile) noexcept {
  switch (profile) {
    case ImpairmentProfile::kClean: return "clean";
    case ImpairmentProfile::kLossy: return "lossy";
    case ImpairmentProfile::kBursty: return "bursty";
    case ImpairmentProfile::kFlakyCensor: return "flaky-censor";
  }
  return "?";
}

const std::vector<ImpairmentProfile>& all_profiles() {
  static const std::vector<ImpairmentProfile> kAll = {
      ImpairmentProfile::kClean, ImpairmentProfile::kLossy,
      ImpairmentProfile::kBursty, ImpairmentProfile::kFlakyCensor};
  return kAll;
}

void apply_profile(ImpairmentProfile profile, Environment::Config& config) {
  switch (profile) {
    case ImpairmentProfile::kClean:
      config.net.link = LinkModel::Config{};
      config.censor_faults = FaultSchedule{};
      return;
    case ImpairmentProfile::kLossy: {
      // Steady 2% random loss plus mild jitter on every lane: the kind of
      // long-haul residential path the paper's measurement clients sit on.
      Impairments imp;
      imp.loss = 0.02;
      imp.reorder = 0.05;
      imp.jitter_min = duration::ms(1);
      imp.jitter_max = duration::ms(5);
      config.net.link.set_all(imp);
      return;
    }
    case ImpairmentProfile::kBursty: {
      // Gilbert–Elliott bursts (outages of a few packets) plus reordering —
      // stresses retransmission paths and the censors' resync machinery.
      Impairments imp;
      imp.burst.p_good_to_bad = 0.05;
      imp.burst.p_bad_to_good = 0.3;
      imp.burst.loss_bad = 0.6;
      imp.reorder = 0.1;
      imp.jitter_min = duration::ms(2);
      imp.jitter_max = duration::ms(10);
      config.net.link.set_all(imp);
      return;
    }
    case ImpairmentProfile::kFlakyCensor: {
      // A clean link, but the censor deployment fails over mid-connection:
      // a restart (state wipe + 10 ms fail-open outage) during the
      // handshake/early data exchange, then a plain state flush later. Each
      // trial starts at sim time 0, so the schedule fires every trial.
      config.net.link = LinkModel::Config{};
      FaultSchedule faults;
      faults.add({duration::ms(15), FaultKind::kRestart, duration::ms(10)});
      faults.add({duration::ms(200), FaultKind::kFlush, 0});
      config.censor_faults = std::move(faults);
      return;
    }
  }
}

SupervisedOutcome TrialCell::run(std::size_t t,
                                 const SupervisionPolicy& policy) const {
  Environment::Config trial_config = config;
  trial_config.seed = config.seed + t;
  return run_supervised_trial(trial_config, conn, policy, t);
}

namespace {

/// What a RateReport reads of one trial. A batch keeps one per trial until
/// it is reduced: 16 bytes, where a whole SupervisedOutcome (result, trace
/// and error detail) is over 100.
struct TrialOutcome {
  bool success = false;
  bool timed_out = false;
  bool errored = false;
  TrialErrorKind error = TrialErrorKind::kNone;
  std::size_t attempts = 1;
};

/// Reduces outcomes[begin, end) in index order. Completed trials (including
/// timeouts — a starved client IS a censorship result) feed the rate;
/// errored trials are excluded from it and accounted separately. Quarantine
/// triggers on a run of consecutive errored trials, scanned in index order
/// so the verdict does not depend on scheduling.
RateReport reduce_outcomes(const std::vector<TrialOutcome>& outcomes,
                           std::size_t begin, std::size_t end) {
  RateReport report;
  std::size_t consecutive_errors = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const TrialOutcome& outcome = outcomes[i];
    report.retries += outcome.attempts - 1;
    if (outcome.errored) {
      ++report.errors;
      ++report.error_counts[static_cast<std::size_t>(outcome.error)];
      if (++consecutive_errors >= kQuarantineAfter) report.quarantined = true;
      continue;
    }
    consecutive_errors = 0;
    report.rate.record(outcome.success);
    if (outcome.timed_out) {
      ++report.timeouts;
      ++report.error_counts[static_cast<std::size_t>(
          TrialErrorKind::kTimeout)];
    }
  }
  return report;
}

/// The cell the rate and sweep runners measure: `strategy` on the server,
/// under options' profile and client OS, trial 0 at options.base_seed.
TrialCell rate_cell(Country country, AppProtocol protocol,
                    const std::optional<Strategy>& strategy,
                    const RateOptions& options) {
  TrialCell cell;
  cell.config.country = country;
  cell.config.protocol = protocol;
  cell.config.seed = options.base_seed;
  apply_profile(options.profile, cell.config);
  cell.conn.server_strategy = strategy;
  cell.conn.client_os = options.client_os;
  return cell;
}

}  // namespace

std::vector<RateReport> measure_cells(const std::vector<TrialCell>& cells,
                                      std::size_t trials, std::size_t jobs,
                                      const SupervisionPolicy& policy) {
  // Each trial is an independent simulation, so the evaluator may run them
  // on any worker. Keyed by cell, each worker runs a cell's trials
  // consecutively against a warm pooled environment. Supervision happens
  // inside each trial (retries keyed to the trial index), so the outcomes,
  // and every report reduced from them in trial order, are identical for
  // every jobs value and across checkpoint resumes.
  const ParallelEvaluator evaluator(jobs);
  const std::vector<TrialOutcome> outcomes = evaluator.map_batched(
      cells.size() * trials, [&](std::size_t i) { return i / trials; },
      [&](std::size_t i) {
        const SupervisedOutcome outcome =
            cells[i / trials].run(i % trials, policy);
        return TrialOutcome{outcome.result.success, outcome.result.timed_out,
                            outcome.errored(), outcome.error,
                            outcome.attempts};
      });
  std::vector<RateReport> reports;
  reports.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    reports.push_back(reduce_outcomes(outcomes, c * trials, (c + 1) * trials));
  }
  return reports;
}

RateCounter measure_rate(Country country, AppProtocol protocol,
                         const std::optional<Strategy>& strategy,
                         const RateOptions& options) {
  return measure_rate_supervised(country, protocol, strategy, options).rate;
}

RateReport measure_rate_supervised(Country country, AppProtocol protocol,
                                   const std::optional<Strategy>& strategy,
                                   const RateOptions& options) {
  // Moved in, not listed in braces: an initializer list would copy the
  // cell's Strategy once more on every fitness evaluation.
  std::vector<TrialCell> cells;
  cells.push_back(rate_cell(country, protocol, strategy, options));
  return measure_cells(cells, options.trials, options.jobs,
                       options.supervision)
      .front();
}

TrialErrorKind RateReport::dominant_error() const noexcept {
  TrialErrorKind dominant = TrialErrorKind::kNone;
  std::size_t best = 0;
  // The kinds after kTimeout are the errors.
  for (std::size_t k = static_cast<std::size_t>(TrialErrorKind::kTimeout) + 1;
       k < kTrialErrorKinds; ++k) {
    if (error_counts[k] > best) {
      best = error_counts[k];
      dominant = static_cast<TrialErrorKind>(k);
    }
  }
  return dominant;
}

bool Quarantine::contains(const std::string& strategy_key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_.count(strategy_key) != 0;
}

void Quarantine::add(const std::string& strategy_key, std::string reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  State& state = keys_[strategy_key];
  state.reason = std::move(reason);
  state.denied = 0;  // a re-add restarts the probe countdown
}

bool Quarantine::should_probe(const std::string& strategy_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = keys_.find(strategy_key);
  if (it == keys_.end()) return false;
  if (probe_interval_ == 0) {
    ++it->second.denied;
    return false;
  }
  ++it->second.denied;
  if (it->second.denied % probe_interval_ != 0) return false;
  ++it->second.probes;
  return true;
}

void Quarantine::release(const std::string& strategy_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (keys_.erase(strategy_key) != 0) ++released_;
}

std::size_t Quarantine::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_.size();
}

std::size_t Quarantine::released() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return released_;
}

std::vector<Quarantine::Status> Quarantine::statuses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Status> out;
  out.reserve(keys_.size());
  for (const auto& [key, state] : keys_) {
    out.push_back({key, state.reason, state.denied, state.probes});
  }
  std::sort(out.begin(), out.end(),
            [](const Status& a, const Status& b) { return a.key < b.key; });
  return out;
}

FitnessFn make_supervised_fitness(Country country, AppProtocol protocol,
                                  std::size_t trials, std::uint64_t base_seed,
                                  std::shared_ptr<Quarantine> quarantine,
                                  SupervisionPolicy policy,
                                  std::vector<ImpairmentProfile> profiles,
                                  std::size_t jobs) {
  if (profiles.empty()) profiles = {ImpairmentProfile::kClean};
  return [=, quarantine = std::move(quarantine),
          profiles = std::move(profiles)](const Strategy& strategy) {
    const std::string key = strategy.to_string();
    bool probing = false;
    if (quarantine && quarantine->contains(key)) {
      if (!quarantine->should_probe(key)) return kQuarantinedFitness;
      probing = true;  // half-open probe: re-evaluate for real
    }
    double sum = 0.0;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      RateOptions options;
      options.trials = trials;
      // Disjoint seed blocks per profile, so the clean and impaired runs
      // are independent samples rather than replays of the same randomness.
      options.base_seed = base_seed + p * trials;
      options.profile = profiles[p];
      options.jobs = jobs;
      options.supervision = policy;
      const RateReport report =
          measure_rate_supervised(country, protocol, strategy, options);
      if (report.quarantined) {
        if (quarantine) {
          quarantine->add(key,
                          std::string(to_string(report.dominant_error())));
        }
        return kQuarantinedFitness;
      }
      sum += report.rate.rate();
    }
    if (probing) quarantine->release(key);  // probe passed: reinstated
    return sum / static_cast<double>(profiles.size()) * 100.0;
  };
}

std::string fitness_cache_digest(Country country, AppProtocol protocol,
                                 std::size_t trials, std::uint64_t base_seed,
                                 const std::vector<ImpairmentProfile>&
                                     profiles) {
  // FNV-1a over every field that changes what a fitness function returns.
  // jobs is deliberately excluded: sharding never changes scores.
  Fnv1a h;
  h.add_le(static_cast<std::uint64_t>(country));
  h.add_le(static_cast<std::uint64_t>(protocol));
  h.add_le(trials);
  h.add_le(base_seed);
  h.add_le(profiles.size());
  for (const ImpairmentProfile profile : profiles) {
    h.add_le(static_cast<std::uint64_t>(profile));
  }
  std::ostringstream out;
  out << std::hex << h.value();
  return out.str();
}

// ---- Impairment sweeps ----------------------------------------------------

std::string_view to_string(SweepAxis axis) noexcept {
  switch (axis) {
    case SweepAxis::kLoss: return "loss";
    case SweepAxis::kBurst: return "burst";
    case SweepAxis::kReorder: return "reorder";
  }
  return "?";
}

LinkModel::Config sweep_link_config(SweepAxis axis, double value) {
  Impairments imp;
  switch (axis) {
    case SweepAxis::kLoss:
      imp.loss = value;
      break;
    case SweepAxis::kBurst:
      imp.burst.p_good_to_bad = value;
      imp.burst.p_bad_to_good = 0.3;
      imp.burst.loss_bad = 0.75;
      break;
    case SweepAxis::kReorder:
      imp.reorder = value;
      imp.jitter_min = duration::ms(2);
      imp.jitter_max = duration::ms(12);
      break;
  }
  LinkModel::Config link;
  link.set_all(imp);
  return link;
}

std::vector<SweepPoint> measure_sweep_cells(
    Country country, AppProtocol protocol,
    const std::vector<std::pair<std::string, std::optional<Strategy>>>&
        strategies,
    SweepAxis axis, const std::vector<double>& values,
    const RateOptions& options, std::size_t first, std::size_t count) {
  if (first + count > strategies.size() * values.size()) {
    throw std::out_of_range("sweep cells out of range");
  }
  // One batch over every cell, each seeded from base_seed: a point is what
  // a cell-by-cell loop would measure, whichever batch measured it.
  std::vector<TrialCell> cells;
  cells.reserve(count);
  for (std::size_t c = first; c < first + count; ++c) {
    TrialCell& cell = cells.emplace_back(rate_cell(
        country, protocol, strategies[c / values.size()].second, options));
    cell.config.net.link = sweep_link_config(axis, values[c % values.size()]);
  }
  const std::vector<RateReport> reports = measure_cells(
      cells, options.trials, options.jobs, options.supervision);

  std::vector<SweepPoint> points(count);
  for (std::size_t c = 0; c < count; ++c) {
    const RateReport& report = reports[c];
    SweepPoint& point = points[c];
    point.value = values[(first + c) % values.size()];
    point.rate = report.rate;
    point.timeouts = report.timeouts;
    point.errors = report.errors;
    point.retries = report.retries;
    point.quarantined = report.quarantined;
    if (report.quarantined) {
      point.quarantine_reason =
          std::string(to_string(report.dominant_error()));
    }
  }
  return points;
}

std::vector<SweepCurve> measure_impairment_sweep(
    Country country, AppProtocol protocol,
    const std::vector<std::pair<std::string, std::optional<Strategy>>>&
        strategies,
    SweepAxis axis, const std::vector<double>& values,
    const RateOptions& options) {
  std::vector<SweepPoint> points =
      measure_sweep_cells(country, protocol, strategies, axis, values,
                          options, 0, strategies.size() * values.size());
  std::vector<SweepCurve> curves(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    curves[s].strategy_name = strategies[s].first;
    const auto begin = points.begin() + s * values.size();
    curves[s].points.assign(std::make_move_iterator(begin),
                            std::make_move_iterator(begin + values.size()));
  }
  return curves;
}

std::string render_sweep(const std::vector<SweepCurve>& curves,
                         SweepAxis axis) {
  std::ostringstream out;
  if (curves.empty()) return out.str();
  out << std::left << std::setw(38) << to_string(axis);
  for (const SweepPoint& point : curves.front().points) {
    std::ostringstream v;
    v << std::setprecision(3) << point.value;
    out << std::right << std::setw(8) << v.str();
  }
  out << '\n';
  for (const SweepCurve& curve : curves) {
    out << std::left << std::setw(38) << curve.strategy_name;
    for (const SweepPoint& point : curve.points) {
      out << std::right << std::setw(8) << percent(point.rate.rate());
    }
    out << '\n';
  }
  // Coverage footer, only when some cell lost trials to errors: the main
  // table stays byte-identical for clean runs, but a sweep that survived
  // injected or real faults says exactly which cells are undersampled.
  bool any_errors = false;
  for (const SweepCurve& curve : curves) {
    for (const SweepPoint& point : curve.points) {
      if (point.errors != 0) any_errors = true;
    }
  }
  if (any_errors) {
    out << "# errors (trials lost after retries; completed/attempted)\n";
    for (const SweepCurve& curve : curves) {
      out << std::left << std::setw(38) << curve.strategy_name;
      for (const SweepPoint& point : curve.points) {
        std::ostringstream cell;
        cell << point.rate.trials() << '/'
             << (point.rate.trials() + point.errors);
        out << std::right << std::setw(8) << cell.str();
      }
      out << '\n';
    }
  }
  // Quarantine footer: *why* a cell's batch was poisoned, not just that it
  // was — the dominant error class per quarantined cell. Additive: absent
  // unless some cell actually tripped quarantine.
  bool any_quarantined = false;
  for (const SweepCurve& curve : curves) {
    for (const SweepPoint& point : curve.points) {
      if (point.quarantined) any_quarantined = true;
    }
  }
  if (any_quarantined) {
    out << "# quarantined (dominant error class per poisoned cell)\n";
    for (const SweepCurve& curve : curves) {
      out << std::left << std::setw(38) << curve.strategy_name;
      for (const SweepPoint& point : curve.points) {
        out << std::right << std::setw(8)
            << (point.quarantined
                    ? (point.quarantine_reason.empty() ? "?" :
                       point.quarantine_reason)
                    : "-");
      }
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace caya
