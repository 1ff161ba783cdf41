// Trial-level fault injection: censor state flushes / stalls / restarts and
// heavy link impairments, exercised through the full Environment harness.
#include <gtest/gtest.h>

#include <optional>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "eval/trial.h"

namespace caya {
namespace {

// Path timing (2 ms/hop): client SYN reaches the censor hop at 6 ms, the
// server at 20 ms; the SYN+ACK is back at the censor at ~34 ms; the client's
// request crosses the censor at ~46 ms.

Environment::Config china_http(std::uint64_t seed) {
  Environment::Config config;
  config.country = Country::kChina;
  config.protocol = AppProtocol::kHttp;
  config.seed = seed;
  return config;
}

TEST(FaultInjection, MidHandshakeFlushMakesTheCensorLoseTheFlow) {
  // The flush lands after the client SYN instantiated the TCB but before the
  // forbidden request crosses the box: the flow is gone, the request packet
  // fails open, the connection succeeds with no evasion strategy at all.
  Environment::Config config = china_http(/*seed=*/3);
  config.censor_faults.add({duration::ms(10), FaultKind::kFlush, 0});

  const TrialResult result = run_trial(config, {});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.censor_events, 0u);
  EXPECT_FALSE(result.timed_out);

  // Control: the same seed without the fault is censored.
  const TrialResult control = run_trial(china_http(/*seed=*/3), {});
  EXPECT_FALSE(control.success);
}

TEST(FaultInjection, StalledCensorFailsOpen) {
  // An outage covering the whole connection: the box neither inspects nor
  // injects, so every packet passes and the keyword goes unnoticed.
  Environment::Config config = china_http(/*seed=*/3);
  config.censor_faults.add({0, FaultKind::kStall, duration::sec(120)});

  const TrialResult result = run_trial(config, {});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.censor_events, 0u);
}

TEST(ChinaCensor, FaultScheduleReachesEveryBox) {
  // The CensorSet fans a trial's fault schedule out to every box, the five
  // colocated GFW boxes included, so the deployment fails over together.
  FaultSchedule schedule;
  schedule.add({duration::ms(10), FaultKind::kFlush, 0});
  for (const Country country : all_countries()) {
    Rng stream(1);
    CensorSet censors(country, stream, ChinaCensor::Architecture::kMultiBox,
                      GfwRegime::kEra2019, schedule);
    for (Middlebox* box : censors.boxes()) {
      ASSERT_NE(box->fault_schedule(), nullptr) << to_string(country);
      // Each box owns an independent cursor over its copy of the schedule.
      EXPECT_EQ(box->fault_schedule()->take_due(duration::ms(20)).size(), 1u);
      EXPECT_TRUE(box->fault_schedule()->take_due(duration::ms(20)).empty());
    }
  }
}

TEST(FaultInjection, FaultsAreRecordedInTheTrace) {
  Environment::Config config = china_http(/*seed=*/3);
  config.censor_faults.add({duration::ms(10), FaultKind::kFlush, 0});

  ConnectionOptions options;
  options.record_trace = true;
  const TrialResult result = run_trial(config, options);
  // Every colocated GFW box fires its own copy of the schedule.
  EXPECT_GE(result.trace.at(TracePoint::kCensorFault).size(), 1u);
}

TEST(FaultInjection, RestartOutageCoversTheRequest) {
  // Restart at 40 ms: state wiped AND a 20 ms outage that the request
  // (at ~46 ms) falls into — doubly fail-open.
  Environment::Config config = china_http(/*seed=*/3);
  config.censor_faults.add(
      {duration::ms(40), FaultKind::kRestart, duration::ms(20)});

  const TrialResult result = run_trial(config, {});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.censor_events, 0u);
}

TEST(FaultInjection, DroppedServerFinUnderBurstTimesOut) {
  // The acceptance scenario: a bursty path plus a link flap that swallows
  // the server's closing segment (and every retransmission of it). The
  // connection can never reach quiescence, so the deadline cuts it off and
  // the trial is classified as timed out instead of hanging the harness.
  //
  // The flap is placed from a flap-free probe of the same trial rather than
  // at a fixed time, so the outcome does not depend on where one seed's
  // loss bursts fall. India/HTTPS is uncensored, so the probe's connection
  // runs to completion. The simulated servers send their response and never
  // close, so the first server segment that needs an ACK (data or FIN) is
  // where the server's side of the exchange ends. The flap opens there, on
  // the censor<->server segment in both directions: nothing the server
  // sends from then on is delivered or acknowledged, and its retransmit
  // timer (300 ms, doubling) is still pending at the 2 s deadline.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Environment::Config config;
    config.country = Country::kIndia;
    config.protocol = AppProtocol::kHttps;
    config.seed = seed;
    apply_profile(ImpairmentProfile::kBursty, config);
    ConnectionOptions options;
    options.deadline = duration::sec(2);

    std::optional<Time> closing_at;
    {
      ConnectionOptions probe_options = options;
      probe_options.record_trace = true;
      Environment probe_env(config);
      const TrialResult probe = probe_env.run_connection(probe_options);
      for (const TraceEvent& event : probe.trace.at(TracePoint::kServerSent)) {
        if (!event.packet.payload.empty() ||
            has_flag(event.packet.tcp.flags, tcpflag::kFin)) {
          closing_at = event.at;
          break;
        }
      }
    }
    ASSERT_TRUE(closing_at.has_value()) << "seed " << seed;

    const LinkFlap blackout{*closing_at, duration::sec(600)};
    config.net.link.censor_server_up.flaps.push_back(blackout);
    config.net.link.censor_server_down.flaps.push_back(blackout);
    const TrialResult result = run_trial(config, options);
    EXPECT_TRUE(result.timed_out) << "seed " << seed;
    EXPECT_FALSE(result.success) << "seed " << seed;
  }
}

TEST(FaultInjection, EventCapCutsOffRunawayConnections) {
  Environment::Config config = china_http(/*seed=*/3);
  ConnectionOptions options;
  options.max_events = 5;  // far too few to finish a handshake
  const TrialResult result = run_trial(config, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.success);
}

TEST(FaultInjection, GenerousBoundsLeaveCleanTrialsUntouched) {
  const TrialResult result = run_trial(china_http(/*seed=*/3), {});
  EXPECT_FALSE(result.timed_out);
}

TEST(FaultInjection, ImpairedTrialsAreReproducible) {
  Environment::Config config = china_http(/*seed=*/17);
  apply_profile(ImpairmentProfile::kBursty, config);

  ConnectionOptions options;
  options.deadline = duration::sec(10);

  const TrialResult a = run_trial(config, options);
  const TrialResult b = run_trial(config, options);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.censor_events, b.censor_events);
}

TEST(FaultInjection, CleanProfileMatchesDefaultConfig) {
  Environment::Config config = china_http(/*seed=*/5);
  apply_profile(ImpairmentProfile::kClean, config);
  EXPECT_FALSE(config.net.link.any());
  EXPECT_TRUE(config.censor_faults.empty());
}

TEST(FaultInjection, SweepIsDeterministicAcrossRuns) {
  std::vector<std::pair<std::string, std::optional<Strategy>>> strategies;
  strategies.emplace_back("no evasion", std::nullopt);

  RateOptions options;
  options.trials = 10;
  options.base_seed = 100;
  const std::vector<double> values = {0.0, 0.1};

  const auto a = measure_impairment_sweep(Country::kChina, AppProtocol::kHttp,
                                          strategies, SweepAxis::kLoss,
                                          values, options);
  const auto b = measure_impairment_sweep(Country::kChina, AppProtocol::kHttp,
                                          strategies, SweepAxis::kLoss,
                                          values, options);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(a[0].points.size(), 2u);
  for (std::size_t i = 0; i < a[0].points.size(); ++i) {
    EXPECT_EQ(a[0].points[i].rate.successes(),
              b[0].points[i].rate.successes());
    EXPECT_EQ(a[0].points[i].timeouts, b[0].points[i].timeouts);
  }
}

}  // namespace
}  // namespace caya
