#include "serve/orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "eval/parallel.h"
#include "geneva/parser.h"
#include "util/snapshot.h"

namespace caya {

std::string_view to_string(HealthEventKind kind) noexcept {
  switch (kind) {
    case HealthEventKind::kRegimeFlip: return "regime-flip";
    case HealthEventKind::kBreakerTrip: return "breaker-trip";
    case HealthEventKind::kBreakerHalfOpen: return "breaker-half-open";
    case HealthEventKind::kBreakerReclose: return "breaker-reclose";
    case HealthEventKind::kBreakerReopen: return "breaker-reopen";
    case HealthEventKind::kFailover: return "failover";
  }
  return "?";
}

std::string to_line(const HealthEvent& event) {
  char head[48];
  std::snprintf(head, sizeof(head), "flow %-7zu %-18s", event.flow,
                std::string(to_string(event.kind)).c_str());
  std::string line = head;
  line += event.tier;
  if (!event.detail.empty()) {
    line += "  (";
    line += event.detail;
    line += ')';
  }
  return line;
}

std::vector<ServeTier> tiers_from_library(const StrategyLibrary& library) {
  std::vector<ServeTier> tiers;
  tiers.reserve(library.entries().size());
  for (const LibraryEntry& entry : library.entries()) {
    tiers.push_back({entry.name, parse_strategy(entry.dsl)});
  }
  return tiers;
}

Orchestrator::Orchestrator(ServeConfig config, std::vector<ServeTier> tiers)
    : config_(config), tiers_(std::move(tiers)) {
  if (tiers_.empty()) {
    throw std::invalid_argument("orchestrator needs at least one tier");
  }
  if (config_.chunk == 0) config_.chunk = 1;
  // The graceful-degradation rung: always admitted, never tripped — an
  // unreachable strategy fleet must degrade to plain serving, not crash.
  tiers_.push_back({"passthrough", std::nullopt});
  // One breaker per real tier, each with its own jitter stream forked from
  // the master in tier order (deterministic, and de-synchronized between
  // tiers).
  Rng master(config_.breaker_seed);
  breakers_.reserve(tiers_.size() - 1);
  for (std::size_t t = 0; t + 1 < tiers_.size(); ++t) {
    breakers_.emplace_back(master.fork());
  }
  report_.tiers.resize(tiers_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    report_.tiers[t].name = tiers_[t].name;
    report_.tiers[t].degraded_tier = t + 1 == tiers_.size();
  }
}

std::string Orchestrator::config_digest() const {
  // Everything that changes the deterministic schedule — but not jobs
  // (sharding), not the checkpoint cadence, and not flows (the stop point:
  // resuming a killed run with more flows is a deterministic extension).
  SnapshotWriter w;
  w.put("country", to_string(config_.country));
  w.put("protocol", to_string(config_.protocol));
  w.put_u64("base_seed", config_.base_seed);
  w.put_u64("breaker_seed", config_.breaker_seed);
  w.put_u64("chunk", config_.chunk);
  w.put_u64("regime_flip_at", config_.regime_flip_at);
  w.put("regime_before", to_string(config_.regime_before));
  w.put("regime_after", to_string(config_.regime_after));
  w.put("os", config_.client_os.name);
  // The health and breaker constants stay in the digest, under their old
  // keys, so checkpoints saved by earlier builds still match.
  w.put_double("ewma_alpha", HealthMonitor::kEwmaAlpha);
  w.put_u64("warmup", HealthMonitor::kWarmup);
  w.put_double("ewma_floor", HealthMonitor::kEwmaFloor);
  w.put_double("ph_delta", HealthMonitor::kPhDelta);
  w.put_double("ph_lambda", HealthMonitor::kPhLambda);
  w.put_u64("backoff_base", CircuitBreaker::kBackoffBase);
  w.put_double("backoff_factor", CircuitBreaker::kBackoffFactor);
  w.put_u64("backoff_cap", CircuitBreaker::kBackoffCap);
  w.put_u64("backoff_jitter", CircuitBreaker::kBackoffJitter);
  w.put_u64("probe_flows", CircuitBreaker::kProbeFlows);
  w.put_u64("probe_passes", CircuitBreaker::kProbePasses);
  w.put_u64("max_retries", kMaxRetries);
  w.put_u64("retry_stride", kRetrySeedStride);
  w.put_u64("quarantine_after", kQuarantineAfter);
  w.put_u64("soft_fault", config_.supervision.inject_soft_fault_every);
  w.put_u64("hard_fault", config_.supervision.inject_hard_fault_every);
  for (const ServeTier& tier : tiers_) {
    w.record("tier", {tier.name,
                      tier.strategy ? tier.strategy->to_string() : ""});
  }
  return w.digest("serve-config");
}

std::size_t Orchestrator::route_preview(std::size_t flow) const {
  for (std::size_t t = 0; t < breakers_.size(); ++t) {
    if (breakers_[t].would_admit(flow)) return t;
  }
  return tiers_.size() - 1;  // degraded rung always admits
}

std::vector<Orchestrator::FlowOutcome> Orchestrator::evaluate_span(
    std::size_t tier, std::size_t first, std::size_t count) {
  const ParallelEvaluator evaluator(config_.jobs);
  // Hoisted per-span constants: the ConnectionOptions holds a deep Strategy
  // copy and the Environment::Config only varies in seed and (across the
  // regime flip) gfw_regime — building both per flow was pure churn.
  ConnectionOptions conn;
  conn.server_strategy = tiers_[tier].strategy;
  conn.client_os = config_.client_os;
  Environment::Config base;
  base.country = config_.country;
  base.protocol = config_.protocol;
  const auto regime_of = [this](std::size_t flow) {
    return (config_.regime_flip_at != ServeConfig::kNoRegimeFlip &&
            flow >= config_.regime_flip_at)
               ? config_.regime_after
               : config_.regime_before;
  };
  // Batched by regime: a span straddling the censor-drift flip runs each
  // regime's flows consecutively, so pooled substrates stay warm on both
  // sides of the flip instead of alternating shapes.
  return evaluator.map_batched(
      count,
      [&](std::size_t k) {
        return static_cast<std::uint64_t>(regime_of(first + k));
      },
      [&](std::size_t k) {
        const std::size_t flow = first + k;
        Environment::Config env = base;
        env.seed = config_.base_seed + flow;
        env.gfw_regime = regime_of(flow);
        const SupervisedOutcome outcome =
            run_supervised_trial(env, conn, config_.supervision, flow);
        return FlowOutcome{outcome.result.success, outcome.result.timed_out,
                           outcome.error};
      });
}

void Orchestrator::emit(std::size_t flow, HealthEventKind kind,
                        std::string tier, std::string detail) {
  HealthEvent event{flow, kind, std::move(tier), std::move(detail)};
  std::string note{to_string(kind)};
  note += ' ';
  note += event.tier;
  if (!event.detail.empty()) {
    note += ": ";
    note += event.detail;
  }
  TraceEvent trace_event;
  trace_event.at = duration::us(flow);
  trace_event.point = TracePoint::kOrchestrator;
  trace_event.note = std::move(note);
  trace_.record(std::move(trace_event));
  report_.events.push_back(std::move(event));
}

void Orchestrator::consume(std::size_t flow, std::size_t tier,
                           const FlowOutcome& outcome) {
  TierStats& stats = report_.tiers[tier];
  ++stats.served;
  const bool errored = outcome.error != TrialErrorKind::kNone &&
                       outcome.error != TrialErrorKind::kTimeout;
  // A trial the supervisor could not complete counts as a failed flow for
  // health purposes: a user behind a crashing strategy is just as blocked
  // as a censored one.
  const bool success = !errored && outcome.success;
  if (success) ++stats.successes;
  if (!errored && outcome.timed_out) ++stats.timeouts;
  if (errored) ++stats.errors;

  if (tier + 1 == tiers_.size()) {
    ++report_.degraded_flows;
    return;  // the degraded rung has no breaker to feed
  }
  CircuitBreaker& breaker = breakers_[tier];
  const std::size_t seen = breaker.health().observations();
  switch (breaker.record(flow, success)) {
    case CircuitBreaker::Transition::kNone:
      break;
    case CircuitBreaker::Transition::kTripped:
      emit(flow, HealthEventKind::kBreakerTrip, tiers_[tier].name,
           breaker.last_trip_reason() + " after " + std::to_string(seen + 1) +
               " flows, backoff until flow " +
               std::to_string(breaker.reopen_at()));
      break;
    case CircuitBreaker::Transition::kReclosed:
      emit(flow, HealthEventKind::kBreakerReclose, tiers_[tier].name,
           "probes passed, tier restored");
      break;
    case CircuitBreaker::Transition::kReopened:
      emit(flow, HealthEventKind::kBreakerReopen, tiers_[tier].name,
           "probes failed, backoff until flow " +
               std::to_string(breaker.reopen_at()));
      break;
  }
}

const ServeReport& Orchestrator::run() {
  while (next_flow_ < config_.flows) {
    // Chunks live on an absolute grid (multiples of config_.chunk from flow
    // 0) so a resumed run speculates exactly like the uninterrupted one.
    const std::size_t chunk_end =
        std::min((next_flow_ / config_.chunk + 1) * config_.chunk,
                 config_.flows);
    std::size_t span_begin = next_flow_;
    std::size_t spec_tier = route_preview(span_begin);
    std::vector<FlowOutcome> outcomes =
        evaluate_span(spec_tier, span_begin, chunk_end - span_begin);

    for (std::size_t flow = span_begin; flow < chunk_end; ++flow) {
      if (config_.regime_flip_at != ServeConfig::kNoRegimeFlip &&
          !regime_flip_emitted_ && flow >= config_.regime_flip_at) {
        regime_flip_emitted_ = true;
        emit(flow, HealthEventKind::kRegimeFlip, "censor",
             std::string(to_string(config_.regime_before)) + " -> " +
                 std::string(to_string(config_.regime_after)));
      }
      for (std::size_t t = 0; t < breakers_.size(); ++t) {
        if (breakers_[t].advance(flow)) {
          emit(flow, HealthEventKind::kBreakerHalfOpen, tiers_[t].name,
               "backoff elapsed, probing");
        }
      }
      std::size_t tier = 0;
      while (tier < breakers_.size() && !breakers_[tier].admits()) ++tier;

      if (tier != spec_tier) {
        // The sequential replay disagrees with the speculation: discard the
        // unconsumed tail and re-evaluate it under the actual routing.
        ++report_.mispredictions;
        report_.speculated_waste += chunk_end - flow;
        spec_tier = tier;
        span_begin = flow;
        outcomes = evaluate_span(spec_tier, span_begin, chunk_end - flow);
      }
      if (tier != active_tier_) {
        emit(flow, HealthEventKind::kFailover, tiers_[tier].name,
             "from " + tiers_[active_tier_].name +
                 (tier + 1 == tiers_.size() ? ", serving degraded" : ""));
        active_tier_ = tier;
      }
      consume(flow, tier, outcomes[flow - span_begin]);
      ++next_flow_;
    }
    report_.flows = next_flow_;
    if (checkpoint_hook_) checkpoint_hook_(*this, next_flow_);
  }
  report_.flows = next_flow_;
  return report_;
}

std::string_view Orchestrator::tier_state(std::size_t index) const {
  if (index + 1 == tiers_.size()) return "degraded";
  return to_string(breakers_[index].state());
}

void Orchestrator::save_checkpoint(SnapshotWriter& writer) const {
  writer.put("config", config_digest());
  writer.put_u64("next_flow", next_flow_);
  writer.put_u64("active_tier", active_tier_);
  writer.put_u64("regime_flip_emitted", regime_flip_emitted_ ? 1 : 0);
  writer.put_u64("degraded_flows", report_.degraded_flows);
  writer.put_u64("speculated_waste", report_.speculated_waste);
  writer.put_u64("mispredictions", report_.mispredictions);
  for (std::size_t t = 0; t < report_.tiers.size(); ++t) {
    const TierStats& stats = report_.tiers[t];
    writer.record("stats",
                  {std::to_string(t), std::to_string(stats.served),
                   std::to_string(stats.successes),
                   std::to_string(stats.timeouts),
                   std::to_string(stats.errors)});
  }
  for (std::size_t t = 0; t < breakers_.size(); ++t) {
    breakers_[t].save(writer, "breaker." + std::to_string(t));
  }
  for (const HealthEvent& event : report_.events) {
    writer.record("event",
                  {std::to_string(event.flow),
                   std::to_string(static_cast<int>(event.kind)), event.tier,
                   event.detail});
  }
}

void Orchestrator::restore_checkpoint(const SnapshotReader& reader) {
  if (reader.get("config") != config_digest()) {
    throw SnapshotError(
        "serve checkpoint was taken under a different configuration or "
        "failover chain; resuming would silently diverge");
  }
  next_flow_ = reader.get_u64("next_flow");
  active_tier_ = reader.get_u64("active_tier");
  regime_flip_emitted_ = reader.get_u64("regime_flip_emitted") != 0;
  report_.flows = next_flow_;
  report_.degraded_flows = reader.get_u64("degraded_flows");
  report_.speculated_waste = reader.get_u64("speculated_waste");
  report_.mispredictions = reader.get_u64("mispredictions");
  for (const SnapshotReader::Record* record : reader.all("stats")) {
    if (record->fields.size() != 5) {
      throw SnapshotError("malformed serve checkpoint stats record");
    }
    const std::size_t t = SnapshotReader::parse_u64(record->fields[0]);
    if (t >= report_.tiers.size()) {
      throw SnapshotError("serve checkpoint stats index out of range");
    }
    TierStats& stats = report_.tiers[t];
    stats.served = SnapshotReader::parse_u64(record->fields[1]);
    stats.successes = SnapshotReader::parse_u64(record->fields[2]);
    stats.timeouts = SnapshotReader::parse_u64(record->fields[3]);
    stats.errors = SnapshotReader::parse_u64(record->fields[4]);
  }
  for (std::size_t t = 0; t < breakers_.size(); ++t) {
    breakers_[t].restore(reader, "breaker." + std::to_string(t));
  }
  report_.events.clear();
  trace_.clear();
  for (const SnapshotReader::Record* record : reader.all("event")) {
    if (record->fields.size() != 4) {
      throw SnapshotError("malformed serve checkpoint event record");
    }
    HealthEvent event;
    event.flow = SnapshotReader::parse_u64(record->fields[0]);
    const std::uint64_t kind = SnapshotReader::parse_u64(record->fields[1]);
    if (kind > static_cast<std::uint64_t>(HealthEventKind::kFailover)) {
      throw SnapshotError("bad serve checkpoint event kind");
    }
    event.kind = static_cast<HealthEventKind>(kind);
    event.tier = record->fields[2];
    event.detail = record->fields[3];
    // Mirror into the trace exactly as emit() would have.
    TraceEvent trace_event;
    trace_event.at = duration::us(event.flow);
    trace_event.point = TracePoint::kOrchestrator;
    trace_event.note = std::string(to_string(event.kind)) + ' ' + event.tier +
                       (event.detail.empty() ? "" : ": " + event.detail);
    trace_.record(std::move(trace_event));
    report_.events.push_back(std::move(event));
  }
}

std::string render_scoreboard(const Orchestrator& orch) {
  const ServeReport& report = orch.report();
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "%-4s %-22s %-9s %8s %8s %7s %6s %6s %7s %9s %7s\n", "tier",
                "strategy", "state", "served", "ok", "rate", "ewma", "trips",
                "probes", "recloses", "errors");
  out << line;
  for (std::size_t t = 0; t < report.tiers.size(); ++t) {
    const TierStats& stats = report.tiers[t];
    char rate[16] = "-";
    if (stats.served > 0) {
      std::snprintf(rate, sizeof(rate), "%.1f%%", stats.rate() * 100);
    }
    char ewma[16] = "-";
    char trips[16] = "-";
    char probes[16] = "-";
    char recloses[16] = "-";
    if (!stats.degraded_tier) {
      const CircuitBreaker& breaker = orch.breaker(t);
      std::snprintf(ewma, sizeof(ewma), "%.2f", breaker.health().ewma());
      std::snprintf(trips, sizeof(trips), "%zu", breaker.trips());
      std::snprintf(probes, sizeof(probes), "%zu", breaker.probes());
      std::snprintf(recloses, sizeof(recloses), "%zu", breaker.recloses());
    }
    std::snprintf(line, sizeof(line),
                  "%-4zu %-22s %-9s %8zu %8zu %7s %6s %6s %7s %9s %7zu\n", t,
                  stats.name.c_str(),
                  std::string(orch.tier_state(t)).c_str(), stats.served,
                  stats.successes, rate, ewma, trips, probes, recloses,
                  stats.errors);
    out << line;
  }
  return out.str();
}

}  // namespace caya
