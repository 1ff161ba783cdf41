// The serve-time orchestration runtime: health monitors, circuit breakers,
// censor-drift failover, and the determinism contracts (jobs invariance,
// checkpoint resume) the acceptance scenario depends on.
#include "serve/orchestrator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "eval/strategies.h"
#include "util/snapshot.h"

namespace caya {
namespace {

// ---- HealthMonitor ---------------------------------------------------------

TEST(HealthMonitor, SteadyModerateStreamStaysHealthy) {
  HealthMonitor monitor;
  // A deterministic ~53% pattern: the paper's working strategies live
  // around here, and the monitor must not trip on ordinary variance.
  for (int i = 0; i < 400; ++i) {
    monitor.record(i % 5 != 0 && i % 3 != 0);
  }
  EXPECT_FALSE(monitor.unhealthy());
  EXPECT_EQ(monitor.reason(), "healthy");
}

TEST(HealthMonitor, CollapseTripsWithinBoundedFlows) {
  HealthMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.record(i % 2 == 0);  // ~50% healthy
  ASSERT_FALSE(monitor.unhealthy());
  // The censor changed: everything fails now. The alarm must fire within a
  // bounded number of flows (lambda / per-flow shortfall ≈ 18).
  int flows_to_alarm = 0;
  while (!monitor.unhealthy() && flows_to_alarm < 60) {
    monitor.record(false);
    ++flows_to_alarm;
  }
  EXPECT_TRUE(monitor.unhealthy());
  EXPECT_LT(flows_to_alarm, 40);
}

TEST(HealthMonitor, ColdStartFailuresDoNotInstantTrip) {
  HealthMonitor monitor;
  // First few flows fail, then the strategy works: the optimistic EWMA
  // start must ride out the cold start.
  for (int i = 0; i < 4; ++i) monitor.record(false);
  for (int i = 0; i < 60; ++i) monitor.record(i % 2 == 0);
  EXPECT_FALSE(monitor.unhealthy());
}

TEST(HealthMonitor, ResetForgetsHistory) {
  HealthMonitor monitor;
  for (int i = 0; i < 50; ++i) monitor.record(false);
  ASSERT_TRUE(monitor.unhealthy());
  monitor.reset();
  EXPECT_FALSE(monitor.unhealthy());
  EXPECT_EQ(monitor.observations(), 0u);
}

TEST(HealthMonitor, SaveRestoreRoundTripsExactly) {
  HealthMonitor monitor;
  for (int i = 0; i < 77; ++i) monitor.record(i % 3 != 0);
  SnapshotWriter writer;
  monitor.save(writer, "h");
  const SnapshotReader reader = SnapshotReader::parse(writer.encode("t"));
  HealthMonitor restored;
  restored.restore(reader, "h");
  EXPECT_EQ(restored.ewma(), monitor.ewma());  // hexfloat: bit-exact
  EXPECT_EQ(restored.observations(), monitor.observations());
  // Identical future evolution.
  for (int i = 0; i < 30; ++i) {
    monitor.record(false);
    restored.record(false);
    EXPECT_EQ(restored.unhealthy(), monitor.unhealthy());
    EXPECT_EQ(restored.ewma(), monitor.ewma());
  }
}

// ---- CircuitBreaker --------------------------------------------------------

CircuitBreaker make_breaker(std::uint64_t seed = 7) {
  return CircuitBreaker(Rng(seed));
}

/// Drives a closed breaker to its trip with persistent failures; returns the
/// first flow index after the trip.
std::size_t trip_breaker(CircuitBreaker& breaker, std::size_t start_flow) {
  std::size_t flow = start_flow;
  while (breaker.state() == BreakerState::kClosed) {
    breaker.advance(flow);
    breaker.record(flow, false);
    ++flow;
  }
  return flow;
}

/// Fails every half-open probe until the breaker re-opens; returns the first
/// flow index after the re-open.
std::size_t fail_probes(CircuitBreaker& breaker, std::size_t flow) {
  while (breaker.state() == BreakerState::kHalfOpen) {
    breaker.record(flow, false);
    ++flow;
  }
  return flow;
}

TEST(CircuitBreaker, TripsOpenThenHalfOpensAfterBackoff) {
  CircuitBreaker breaker = make_breaker();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.admits());

  const std::size_t tripped_at = trip_breaker(breaker, 0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.admits());
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_GE(breaker.reopen_at(),
            tripped_at - 1 + CircuitBreaker::kBackoffBase);

  // Before the window: stays open. At the window: half-open, admits probes.
  EXPECT_FALSE(breaker.advance(breaker.reopen_at() - 1));
  EXPECT_FALSE(breaker.admits());
  EXPECT_TRUE(breaker.advance(breaker.reopen_at()));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.admits());
}

TEST(CircuitBreaker, ProbeSuccessesReclose) {
  CircuitBreaker breaker = make_breaker();
  trip_breaker(breaker, 0);
  std::size_t flow = breaker.reopen_at();
  ASSERT_TRUE(breaker.advance(flow));

  CircuitBreaker::Transition last = CircuitBreaker::Transition::kNone;
  std::size_t probes = 0;
  while (breaker.state() == BreakerState::kHalfOpen) {
    last = breaker.record(flow++, true);
    ++probes;
  }
  EXPECT_EQ(last, CircuitBreaker::Transition::kReclosed);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.recloses(), 1u);
  // Early verdict: re-closes as soon as probe_passes accumulate, without
  // burning the whole quota.
  EXPECT_EQ(probes, CircuitBreaker::kProbePasses);
}

TEST(CircuitBreaker, ProbeFailuresReopenWithLongerBackoff) {
  CircuitBreaker breaker = make_breaker();
  std::size_t flow = trip_breaker(breaker, 0);
  const std::size_t first_window = breaker.reopen_at() - (flow - 1);

  flow = breaker.reopen_at();
  ASSERT_TRUE(breaker.advance(flow));
  const std::size_t reopened_after = fail_probes(breaker, flow);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.last_trip_reason(), "probe-failure");
  const std::size_t second_window =
      breaker.reopen_at() - (reopened_after - 1);
  // Exponential: the second window is at least the doubled base, beyond
  // what jitter alone could explain.
  EXPECT_GT(second_window, first_window);
  EXPECT_GE(second_window, 2 * CircuitBreaker::kBackoffBase);
}

TEST(CircuitBreaker, BackoffScheduleIsDeterministicPerSeed) {
  const auto schedule = [](std::uint64_t seed) {
    CircuitBreaker breaker = make_breaker(seed);
    std::vector<std::size_t> windows;
    std::size_t flow = trip_breaker(breaker, 0);
    windows.push_back(breaker.reopen_at());
    for (int round = 0; round < 4; ++round) {
      flow = breaker.reopen_at();
      breaker.advance(flow);
      flow = fail_probes(breaker, flow);
      windows.push_back(breaker.reopen_at());
    }
    return windows;
  };
  EXPECT_EQ(schedule(11), schedule(11));  // same seed: identical jitter
  EXPECT_NE(schedule(11), schedule(12));  // different seed: de-synchronized
}

TEST(CircuitBreaker, WouldAdmitPreviewsAdvanceWithoutMutating) {
  CircuitBreaker breaker = make_breaker();
  trip_breaker(breaker, 0);
  const std::size_t reopen = breaker.reopen_at();
  EXPECT_FALSE(breaker.would_admit(reopen - 1));
  EXPECT_TRUE(breaker.would_admit(reopen));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);  // preview, no transition
}

TEST(CircuitBreaker, SaveRestoreResumesIdenticalSchedule) {
  CircuitBreaker original = make_breaker(21);
  trip_breaker(original, 0);

  SnapshotWriter writer;
  original.save(writer, "b");
  const SnapshotReader reader = SnapshotReader::parse(writer.encode("t"));
  CircuitBreaker restored = make_breaker(999);  // wrong seed, overwritten
  restored.restore(reader, "b");
  EXPECT_EQ(restored.state(), original.state());
  EXPECT_EQ(restored.reopen_at(), original.reopen_at());

  // Drive both through two more trip/probe rounds: the restored jitter RNG
  // stream must replay the original's backoff schedule bit-for-bit.
  for (int round = 0; round < 2; ++round) {
    const std::size_t f1 = original.reopen_at();
    const std::size_t f2 = restored.reopen_at();
    ASSERT_EQ(f1, f2);
    ASSERT_TRUE(original.advance(f1));
    ASSERT_TRUE(restored.advance(f2));
    fail_probes(original, f1);
    fail_probes(restored, f2);
    EXPECT_EQ(restored.reopen_at(), original.reopen_at());
  }
}

// ---- Orchestrator ----------------------------------------------------------

ServeConfig small_config() {
  ServeConfig config;
  config.flows = 160;
  config.base_seed = 5;
  config.breaker_seed = 5;
  config.chunk = 32;
  return config;
}

std::vector<ServeTier> chain_7_6() {
  return {{"published 7", parsed_strategy(7)},
          {"published 6", parsed_strategy(6)}};
}

/// The full deterministic surface of a run, for byte-identity comparisons.
std::string report_fingerprint(const Orchestrator& orch) {
  std::string out;
  for (const HealthEvent& event : orch.report().events) {
    out += to_line(event) + "\n";
  }
  out += render_scoreboard(orch);
  out += "degraded=" + std::to_string(orch.report().degraded_flows);
  out += " waste=" + std::to_string(orch.report().speculated_waste);
  out += " mispredictions=" + std::to_string(orch.report().mispredictions);
  return out;
}

TEST(Orchestrator, RejectsEmptyChain) {
  EXPECT_THROW(Orchestrator(small_config(), {}), std::invalid_argument);
}

TEST(Orchestrator, AppendsPassthroughDegradationTier) {
  Orchestrator orch(small_config(), chain_7_6());
  const ServeReport& report = orch.report();
  ASSERT_EQ(report.tiers.size(), 3u);
  EXPECT_EQ(report.tiers.back().name, "passthrough");
  EXPECT_TRUE(report.tiers.back().degraded_tier);
  EXPECT_EQ(orch.tier_state(2), "degraded");
}

TEST(Orchestrator, RegimeFlipTripsBreakerAndFailsOver) {
  ServeConfig config = small_config();
  config.regime_flip_at = 64;
  Orchestrator orch(config, chain_7_6());
  const ServeReport& report = orch.run();

  // Pre-flip: tier 0 (RST-resync dependent) is healthy. Post-flip it
  // collapses; the breaker must trip within a bounded number of flows and
  // the chain fails over to the payload-based tier 1, which keeps serving.
  std::size_t flip_flow = 0, trip_flow = 0;
  bool saw_failover_to_1 = false;
  for (const HealthEvent& event : report.events) {
    if (event.kind == HealthEventKind::kRegimeFlip) flip_flow = event.flow;
    if (event.kind == HealthEventKind::kBreakerTrip &&
        event.tier == "published 7" && trip_flow == 0) {
      trip_flow = event.flow;
    }
    if (event.kind == HealthEventKind::kFailover &&
        event.tier == "published 6") {
      saw_failover_to_1 = true;
    }
  }
  EXPECT_EQ(flip_flow, 64u);
  ASSERT_GT(trip_flow, 0u) << report_fingerprint(orch);
  EXPECT_GT(trip_flow, flip_flow);
  EXPECT_LT(trip_flow, flip_flow + 40) << "detection latency unbounded";
  EXPECT_TRUE(saw_failover_to_1) << report_fingerprint(orch);
  // Tier 1 carried real load after the failover and stayed healthy.
  EXPECT_GT(report.tiers[1].served, 20u);
  EXPECT_GT(report.tiers[1].rate(), 0.3);
  EXPECT_EQ(orch.breaker(1).trips(), 0u);
}

TEST(Orchestrator, DegradesToPassthroughWhenAllTiersCollapse) {
  ServeConfig config = small_config();
  // The HTTPS-resync era from flow 0: the RST-dependent strategy never
  // works, so after its breaker trips the only rung left is passthrough.
  config.regime_before = GfwRegime::kEraHttpsResync;
  Orchestrator orch(config, {{"published 7", parsed_strategy(7)}});
  const ServeReport& report = orch.run();
  EXPECT_GT(report.degraded_flows, 0u);
  bool degraded_failover = false;
  for (const HealthEvent& event : report.events) {
    if (event.kind == HealthEventKind::kFailover &&
        event.tier == "passthrough") {
      degraded_failover = true;
    }
  }
  EXPECT_TRUE(degraded_failover) << report_fingerprint(orch);
  // Degraded is reported, not crashed: every flow was served by some tier.
  std::size_t served = 0;
  for (const TierStats& stats : report.tiers) served += stats.served;
  EXPECT_EQ(served, config.flows);
}

TEST(Orchestrator, JobsValueNeverChangesTheRun) {
  ServeConfig config = small_config();
  config.regime_flip_at = 64;
  std::string baseline;
  for (const std::size_t jobs : {1u, 2u, 5u}) {
    ServeConfig sharded = config;
    sharded.jobs = jobs;
    Orchestrator orch(sharded, chain_7_6());
    orch.run();
    if (baseline.empty()) {
      baseline = report_fingerprint(orch);
    } else {
      EXPECT_EQ(report_fingerprint(orch), baseline) << "jobs=" << jobs;
    }
  }
}

TEST(Orchestrator, CheckpointResumeReplaysByteIdentically) {
  ServeConfig config = small_config();
  config.regime_flip_at = 64;

  Orchestrator uninterrupted(config, chain_7_6());
  uninterrupted.run();

  // Capture a snapshot mid-run (at the chunk boundary after flow 96)...
  std::string snapshot;
  Orchestrator first(config, chain_7_6());
  first.set_checkpoint_hook([&](const Orchestrator& o, std::size_t flows) {
    if (flows == 96) {
      SnapshotWriter writer;
      o.save_checkpoint(writer);
      snapshot = writer.encode(Orchestrator::snapshot_kind());
    }
  });
  first.run();
  ASSERT_FALSE(snapshot.empty());

  // ...and resume a fresh orchestrator from it.
  Orchestrator resumed(config, chain_7_6());
  resumed.restore_checkpoint(SnapshotReader::parse(snapshot));
  EXPECT_EQ(resumed.report().flows, 96u);
  resumed.run();
  EXPECT_EQ(report_fingerprint(resumed), report_fingerprint(uninterrupted));
}

TEST(Orchestrator, RefusesCheckpointFromDifferentConfig) {
  Orchestrator orch(small_config(), chain_7_6());
  SnapshotWriter writer;
  orch.save_checkpoint(writer);
  const std::string snapshot = writer.encode(Orchestrator::snapshot_kind());

  ServeConfig other = small_config();
  other.base_seed = 6;
  Orchestrator different(other, chain_7_6());
  EXPECT_THROW(
      different.restore_checkpoint(SnapshotReader::parse(snapshot)),
      SnapshotError);
  // jobs is sharding, not schedule: a different jobs value must resume.
  ServeConfig more_jobs = small_config();
  more_jobs.jobs = 4;
  Orchestrator sharded(more_jobs, chain_7_6());
  EXPECT_NO_THROW(
      sharded.restore_checkpoint(SnapshotReader::parse(snapshot)));
}

TEST(Orchestrator, HealthEventsMirrorIntoTrace) {
  ServeConfig config = small_config();
  config.regime_flip_at = 64;
  Orchestrator orch(config, chain_7_6());
  const ServeReport& report = orch.run();
  ASSERT_FALSE(report.events.empty());
  const auto traced = orch.trace().at(TracePoint::kOrchestrator);
  ASSERT_EQ(traced.size(), report.events.size());
  EXPECT_EQ(traced.front().at, duration::us(report.events.front().flow));
}

TEST(Orchestrator, TiersFromLibraryPreserveOrder) {
  StrategyLibrary library;
  library.add({.name = "alpha",
               .success = 0.5,
               .notes = "",
               .dsl = published_strategy(7).dsl});
  library.add({.name = "beta",
               .success = 0.4,
               .notes = "",
               .dsl = published_strategy(6).dsl});
  const std::vector<ServeTier> tiers = tiers_from_library(library);
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers[0].name, "alpha");
  EXPECT_EQ(tiers[1].name, "beta");
  ASSERT_TRUE(tiers[0].strategy.has_value());
}

}  // namespace
}  // namespace caya
