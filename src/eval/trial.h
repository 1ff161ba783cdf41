// The experiment harness: an unmodified client inside a censoring country
// connecting to a server (optionally running a Geneva strategy) outside it.
//
// An Environment owns the event loop, the simulated path, and the country's
// censor middleboxes (a CensorSet); it persists across connections so
// follow-up behaviour like China's residual censorship (~90 s) can be
// exercised. Each run_connection() creates a fresh client/server
// application pair on fresh ports.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "apps/dns_app.h"
#include "apps/ftp.h"
#include "apps/http.h"
#include "apps/https.h"
#include "apps/smtp.h"
#include "censor/carrier.h"
#include "eval/censor_set.h"
#include "eval/country.h"
#include "geneva/engine.h"
#include "netsim/network.h"

namespace caya {

struct ConnectionOptions {
  std::optional<Strategy> server_strategy;
  std::optional<Strategy> client_strategy;
  /// Custom client-side shim (instrumented-client experiments). Takes
  /// precedence over client_strategy. Not owned.
  PacketProcessor* client_processor = nullptr;
  OsProfile client_os = OsProfile::linux_default();
  /// §5 verification hooks.
  std::int32_t client_data_seq_shift = 0;
  bool suppress_induced_rst = false;
  bool record_trace = false;
  /// Robustness bounds: a connection that has not reached quiescence within
  /// `deadline` of simulated time (or `max_events` loop events — a
  /// retransmit storm under heavy impairment) is cut off and classified as
  /// timed out instead of hanging the harness.
  Time deadline = duration::sec(60);
  std::size_t max_events = 500000;
};

/// Structured classification of why a trial did not complete normally.
/// This is the supervision taxonomy long campaigns key retry/quarantine
/// decisions on; see run_supervised_trial(). The kinds after kTimeout are
/// the errors; kNone and kTimeout are completed trials.
enum class TrialErrorKind {
  kNone = 0,                // trial completed (success or ordinary failure)
  kTimeout,                 // cut off by the deadline or the event cap
  kInvariantViolation,      // a CAYA_SELFCHECK invariant fired (SelfCheckError)
  kCodecError,              // packet codec / unexpected exception in the sim
  kInjectedFault,           // deterministic fault injected by the harness
};
inline constexpr std::size_t kTrialErrorKinds = 5;

[[nodiscard]] std::string_view to_string(TrialErrorKind kind) noexcept;

/// Retryable classes model transient infrastructure failure: re-running the
/// trial (under a perturbed seed) can plausibly succeed. Timeouts and
/// invariant violations are deterministic outcomes of (seed, strategy) and
/// are never retried.
[[nodiscard]] bool is_retryable(TrialErrorKind kind) noexcept;

struct TrialResult {
  bool success = false;       // paper criterion: correct data, no teardown
  bool client_reset = false;
  bool timed_out = false;     // cut off by the deadline or the event cap
  std::size_t censor_events = 0;  // censorship actions during the connection
  double server_amplification = 1.0;  // packets out per packet in (§8)
  Trace trace;                // populated when record_trace was set
};

class Environment {
 public:
  struct Config {
    Country country = Country::kChina;
    AppProtocol protocol = AppProtocol::kHttp;
    std::uint64_t seed = 1;
    std::uint16_t server_port = 0;  // 0 = protocol default
    Network::Config net;
    /// Figure 3 ablation: run China as one shared-stack box instead of the
    /// real multi-box deployment.
    ChinaCensor::Architecture china_architecture =
        ChinaCensor::Architecture::kMultiBox;
    /// Censor-drift scenarios: which parameter era the Chinese boxes run
    /// (ignored by the single-box ablation and by other countries).
    GfwRegime gfw_regime = GfwRegime::kEra2019;
    /// §7 cellular anecdote: interpose a carrier middlebox on the path.
    CarrierNetwork carrier = CarrierNetwork::kWifi;
    /// Scheduled censor faults (state flush / stall / restart), applied to
    /// every censor middlebox of the configured country.
    FaultSchedule censor_faults;
  };

  explicit Environment(Config config);

  /// Full substrate reset: returns the environment to the state a fresh
  /// `Environment({... , .seed = seed})` of the same config would be in,
  /// byte-identically, without reconstructing anything. Replays the
  /// constructor's RNG fork order (network first, then the censors), rewinds
  /// the event loop, wipes every censor's flow/counter/ledger state, and
  /// rewinds fault-schedule cursors. Only `seed` may differ from the
  /// original config; all other fields are assumed unchanged (the pool keys
  /// on a digest of them).
  void reset(std::uint64_t seed);

  TrialResult run_connection(const ConnectionOptions& options);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  [[nodiscard]] Network& network() noexcept { return *net_; }
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] CensorSet& censors() noexcept { return censors_; }
  [[nodiscard]] std::uint16_t server_port() const noexcept {
    return server_port_;
  }

 private:
  /// Runs the loop until quiescence, the sim-time deadline, or the event
  /// cap; returns true when the connection was cut off (timed out).
  bool run_bounded(Time deadline, std::size_t max_events);

  Config config_;
  Rng rng_;
  EventLoop loop_;
  std::unique_ptr<Network> net_;  // forks rng_ before censors_ does
  std::unique_ptr<CarrierMiddlebox> carrier_;
  CensorSet censors_;
  std::uint16_t server_port_ = 80;
  std::uint16_t next_client_port_ = 40000;
  std::uint32_t next_isn_ = 11000;
};

/// Runs one connection on a warm substrate from the calling thread's
/// EnvironmentPool — byte-identical to a fresh Environment(env_config).
[[nodiscard]] TrialResult run_trial(Environment::Config env_config,
                                    const ConnectionOptions& options);

// ---- Supervised execution --------------------------------------------------

/// Deterministic "backoff": attempt k re-runs the simulation under seed
/// (base seed + k * stride). In a simulator there is no wall clock to back
/// off against; perturbing the seed is the deterministic equivalent of
/// retrying later against different transient conditions.
inline constexpr std::uint64_t kRetrySeedStride = 0x9E3779B97F4A7C15ull;

/// Extra attempts granted to retryable error classes before the trial is
/// recorded as errored.
inline constexpr std::size_t kMaxRetries = 2;

/// A strategy whose batch shows this many *consecutive* errored trials
/// (timeouts excluded — those are legitimate results) is quarantined: the
/// batch is reported poisoned and the GA assigns sentinel fitness instead of
/// aborting the campaign.
inline constexpr std::size_t kQuarantineAfter = 8;

/// How a batch runner reacts to failing trials. All decisions are
/// deterministic functions of (trial index, attempt), so a supervised batch
/// is byte-identical across --jobs values and across resumes.
struct SupervisionPolicy {
  /// Deterministic fault injection for tests/benches: every Nth trial
  /// (1-based index divisible by N) fails. "soft" faults fail only the
  /// first attempt, so a retry recovers them; "hard" faults fail every
  /// attempt and exhaust the retry budget. 0 disables.
  std::size_t inject_soft_fault_every = 0;
  std::size_t inject_hard_fault_every = 0;

  /// True when the policy injects a fault for this (trial, attempt).
  [[nodiscard]] bool injects_fault(std::size_t trial_index,
                                   std::size_t attempt) const noexcept;
};

struct SupervisedOutcome {
  /// Last attempt's result (default-constructed when every attempt errored
  /// before producing one).
  TrialResult result;
  /// Final classification: kNone (completed), kTimeout (completed, cut
  /// off), or the error class that survived the retry budget.
  TrialErrorKind error = TrialErrorKind::kNone;
  std::string detail;         // human-readable; includes seed + strategy
  std::size_t attempts = 1;   // 1 = no retry was needed

  /// True when the trial was lost to an error its retries did not clear. A
  /// timeout is a completed trial: a starved client IS a censorship result.
  [[nodiscard]] bool errored() const noexcept {
    return error != TrialErrorKind::kNone && error != TrialErrorKind::kTimeout;
  }
};

/// Runs one trial under supervision: exceptions are caught and classified
/// (SelfCheckError -> invariant-violation with the trial's seed + strategy
/// in the detail, anything else -> codec-error), retryable errors get
/// deterministic seed-perturbed retries, and nothing ever propagates out —
/// a failed trial can no longer abort a sweep or an evolution run.
[[nodiscard]] SupervisedOutcome run_supervised_trial(
    const Environment::Config& env_config, const ConnectionOptions& options,
    const SupervisionPolicy& policy, std::size_t trial_index);

/// Canonical addresses used throughout the evaluation.
[[nodiscard]] constexpr Ipv4Address eval_client_addr() noexcept {
  return Ipv4Address(101, 6, 8, 2);
}
[[nodiscard]] constexpr Ipv4Address eval_server_addr() noexcept {
  return Ipv4Address(93, 184, 216, 34);
}

}  // namespace caya
