// The strategy orchestration runtime: keeps a live server-side deployment
// healthy while the censor drifts underneath it.
//
// An Orchestrator fronts an ordered failover chain of strategies (typically
// loaded from a StrategyLibrary) and drives a stream of simulated flows
// through whichever tier is currently healthy:
//
//   * every tier below the final one is guarded by a CircuitBreaker whose
//     HealthMonitor watches that tier's outcome stream (EWMA + Page–Hinkley
//     drift detection);
//   * a flow is routed to the first tier whose breaker admits it — closed,
//     or half-open with probe quota left (so a recovering tier gets its
//     probe flows even while a lower tier carries the load);
//   * the final tier is graceful degradation: passthrough / no evasion,
//     always admitted, reported as degraded rather than crashed.
//
// Censor drift is first-class: the flow stream can flip the GFW's parameter
// regime at a configured flow index (eval-side, via Environment::Config's
// gfw_regime), so "the censor changed and the breaker tripped N flows later"
// is a reproducible, testable scenario.
//
// Determinism: each flow's outcome is a pure function of (tier strategy,
// flow index) — trials run in fresh Environments seeded from base_seed +
// flow. Routing is decided by a sequential state machine, while trial
// batches are evaluated speculatively in fixed-size chunks on the shared
// thread pool: the orchestrator guesses that the chunk keeps its routing,
// evaluates the chunk in parallel, and replays it sequentially, discarding
// and re-evaluating from the first flow whose actual routing differs. The
// replay is the single source of truth, so every jobs value — and every
// kill-and-resume from a checkpoint — yields byte-identical events,
// scoreboards, and traces.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "eval/trial.h"
#include "geneva/library.h"
#include "netsim/trace.h"
#include "serve/breaker.h"

namespace caya {

/// One rung of the failover chain.
struct ServeTier {
  std::string name;
  std::optional<Strategy> strategy;  // nullopt = passthrough (no evasion)
};

/// The failover chain a StrategyLibrary describes, in library order.
[[nodiscard]] std::vector<ServeTier> tiers_from_library(
    const StrategyLibrary& library);

struct ServeConfig {
  Country country = Country::kChina;
  AppProtocol protocol = AppProtocol::kHttp;
  std::size_t flows = 0;
  std::uint64_t base_seed = 1;
  /// Master seed for the per-breaker jitter RNG streams.
  std::uint64_t breaker_seed = 1;
  /// Trial-batch sharding (1 = serial). Never changes any output byte.
  std::size_t jobs = 1;
  /// Speculation chunk: routing is re-examined every flow, but trials are
  /// evaluated this many flows at a time. Fixed independently of jobs (it
  /// is part of the deterministic schedule), and chunk boundaries are the
  /// checkpoint grain.
  std::size_t chunk = 64;
  /// Censor drift scenario: flows >= regime_flip_at run under regime_after.
  /// kNoRegimeFlip disables the flip.
  std::size_t regime_flip_at = kNoRegimeFlip;
  GfwRegime regime_before = GfwRegime::kEra2019;
  GfwRegime regime_after = GfwRegime::kEraHttpsResync;
  OsProfile client_os = OsProfile::linux_default();
  SupervisionPolicy supervision;

  static constexpr std::size_t kNoRegimeFlip =
      static_cast<std::size_t>(-1);
};

/// The orchestrator's structured health-event taxonomy (DESIGN.md §10).
enum class HealthEventKind {
  kRegimeFlip,       // the censor's parameter era changed under the fleet
  kBreakerTrip,      // closed -> open (detail: drift / ewma-floor + stats)
  kBreakerHalfOpen,  // open -> half-open (backoff elapsed, probing begins)
  kBreakerReclose,   // half-open -> closed (probes passed; tier recovered)
  kBreakerReopen,    // half-open -> open (probes failed; backoff doubled)
  kFailover,         // the serving tier changed (incl. into/out of degraded)
};

[[nodiscard]] std::string_view to_string(HealthEventKind kind) noexcept;

struct HealthEvent {
  std::size_t flow = 0;  // flow index at which the event fired
  HealthEventKind kind = HealthEventKind::kFailover;
  std::string tier;      // tier name the event concerns
  std::string detail;    // deterministic, human-readable specifics
};

/// Renders one event as the canonical "flow N  kind  tier  detail" line.
[[nodiscard]] std::string to_line(const HealthEvent& event);

/// Per-tier scoreboard row.
struct TierStats {
  std::string name;
  bool degraded_tier = false;  // the final passthrough rung
  std::size_t served = 0;      // flows this tier carried
  std::size_t successes = 0;
  std::size_t timeouts = 0;
  std::size_t errors = 0;      // supervised-trial errors (counted as failures)
  [[nodiscard]] double rate() const noexcept {
    return served == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(served);
  }
};

struct ServeReport {
  std::size_t flows = 0;           // flows processed so far
  std::size_t degraded_flows = 0;  // flows served by the passthrough tier
  /// Speculation accounting: trials evaluated but discarded because the
  /// sequential replay routed those flows elsewhere. Invariant across jobs
  /// values and across same-stop-point resumes; extending a finished run
  /// with more flows may count differently (the shorter run's final chunk
  /// was truncated, so fewer speculative trials genuinely ran).
  std::size_t speculated_waste = 0;
  std::size_t mispredictions = 0;
  std::vector<TierStats> tiers;
  std::vector<HealthEvent> events;
};

class Orchestrator {
 public:
  /// `tiers` is the failover chain in priority order; a final passthrough
  /// tier ("passthrough") is appended automatically as the degradation
  /// rung. Throws std::invalid_argument when `tiers` is empty.
  Orchestrator(ServeConfig config, std::vector<ServeTier> tiers);

  /// Runs all remaining flows (resumable: after restore_checkpoint this
  /// continues where the snapshot left off). Returns the final report.
  const ServeReport& run();

  [[nodiscard]] const ServeReport& report() const noexcept { return report_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  /// Health events mirrored into a packet-free netsim trace (TracePoint::
  /// kOrchestrator, at = flow index in microseconds-of-stream-time).
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const CircuitBreaker& breaker(std::size_t tier) const {
    return breakers_.at(tier);
  }
  /// Scoreboard state column for tier `index` ("degraded" for the final
  /// rung, breaker state otherwise).
  [[nodiscard]] std::string_view tier_state(std::size_t index) const;

  /// Invoked after each chunk with the flows processed so far; the hook may
  /// call save_checkpoint (the orchestrator is always at a consistent chunk
  /// boundary here).
  using CheckpointHook =
      std::function<void(const Orchestrator&, std::size_t flows_done)>;
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }

  [[nodiscard]] static std::string_view snapshot_kind() noexcept {
    return "serve-checkpoint";
  }
  void save_checkpoint(SnapshotWriter& writer) const;
  /// Restores flow cursor, breaker/health state (including jitter RNG
  /// streams), scoreboard, and the event log. Throws SnapshotError when the
  /// snapshot was taken under a different config or tier chain.
  void restore_checkpoint(const SnapshotReader& reader);

 private:
  struct FlowOutcome {
    bool success = false;
    bool timed_out = false;
    TrialErrorKind error = TrialErrorKind::kNone;
  };

  [[nodiscard]] std::string config_digest() const;
  [[nodiscard]] std::size_t route_preview(std::size_t flow) const;
  [[nodiscard]] std::vector<FlowOutcome> evaluate_span(std::size_t tier,
                                                       std::size_t first,
                                                       std::size_t count);
  void emit(std::size_t flow, HealthEventKind kind, std::string tier,
            std::string detail);
  void consume(std::size_t flow, std::size_t tier,
               const FlowOutcome& outcome);

  ServeConfig config_;
  std::vector<ServeTier> tiers_;      // includes the final degraded tier
  std::vector<CircuitBreaker> breakers_;  // one per non-degraded tier
  std::size_t next_flow_ = 0;
  std::size_t active_tier_ = 0;       // tier that served the previous flow
  bool regime_flip_emitted_ = false;
  ServeReport report_;
  Trace trace_;
  CheckpointHook checkpoint_hook_;
};

/// Renders the per-strategy scoreboard table `caya serve` prints.
[[nodiscard]] std::string render_scoreboard(const Orchestrator& orch);

}  // namespace caya
