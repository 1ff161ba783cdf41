// A three-state circuit breaker guarding one deployed strategy.
//
//   closed ──(health monitor trips: drift or EWMA floor)──▶ open
//   open ──(backoff window of flows elapses)──▶ half-open
//   half-open ──(probe quota passes)──▶ closed (breaker "re-closes")
//   half-open ──(probe quota fails)──▶ open (backoff doubles)
//
// Time is measured in *flows observed by the orchestrator*, not wall clock:
// the simulator has no shared clock across trials, and flow counts make
// every transition a deterministic function of the outcome stream. The
// open-state backoff grows exponentially with consecutive trips (capped)
// plus a small uniform jitter drawn from an RNG stream forked per breaker —
// deterministic under a fixed seed, but de-synchronized across strategies so
// a fleet of breakers tripped by the same censor flip does not probe in
// lockstep.
#pragma once

#include <cstddef>
#include <string>

#include "serve/health.h"
#include "util/rng.h"

namespace caya {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] std::string_view to_string(BreakerState state) noexcept;

class CircuitBreaker {
 public:
  /// Flows the breaker stays open after its first trip.
  static constexpr std::size_t kBackoffBase = 16;
  /// Open-window growth per consecutive trip (reset by a re-close).
  static constexpr double kBackoffFactor = 2.0;
  /// Upper bound on the open window (before jitter).
  static constexpr std::size_t kBackoffCap = 256;
  /// Uniform extra flows in [0, kBackoffJitter], drawn per trip.
  static constexpr std::size_t kBackoffJitter = 4;
  /// Half-open probe quota and the passes required to re-close.
  static constexpr std::size_t kProbeFlows = 6;
  static constexpr std::size_t kProbePasses = 4;
  static_assert(kProbePasses <= kProbeFlows);

  explicit CircuitBreaker(Rng jitter_rng) : rng_(jitter_rng) {}

  /// Advances breaker time to `flow`; an open breaker whose backoff window
  /// has elapsed moves to half-open. Returns true on that transition.
  bool advance(std::size_t flow);

  /// True when this strategy should serve the next flow (closed, or
  /// half-open with probe quota remaining).
  [[nodiscard]] bool admits() const noexcept;

  /// admits() as it would read after advance(flow) — side-effect-free, for
  /// the orchestrator's speculative routing preview.
  [[nodiscard]] bool would_admit(std::size_t flow) const noexcept;

  /// What record() did to the breaker, for health-event emission.
  enum class Transition { kNone, kTripped, kReclosed, kReopened };

  /// Feeds the outcome of a flow this breaker admitted.
  Transition record(std::size_t flow, bool success);

  [[nodiscard]] BreakerState state() const noexcept { return state_; }
  [[nodiscard]] const HealthMonitor& health() const noexcept {
    return health_;
  }
  [[nodiscard]] std::size_t trips() const noexcept { return trips_; }
  [[nodiscard]] std::size_t recloses() const noexcept { return recloses_; }
  [[nodiscard]] std::size_t probes() const noexcept { return probes_total_; }
  /// First flow index at which an open breaker will go half-open.
  [[nodiscard]] std::size_t reopen_at() const noexcept { return reopen_at_; }
  /// Why the breaker last left the closed state ("drift" / "ewma-floor" /
  /// "probe-failure").
  [[nodiscard]] const std::string& last_trip_reason() const noexcept {
    return trip_reason_;
  }

  void save(SnapshotWriter& writer, const std::string& key) const;
  void restore(const SnapshotReader& reader, const std::string& key);

 private:
  void trip(std::size_t flow, std::string reason);

  HealthMonitor health_;
  Rng rng_{0};
  BreakerState state_ = BreakerState::kClosed;
  std::size_t trips_ = 0;              // lifetime trips (open entries)
  std::size_t consecutive_trips_ = 0;  // since the last re-close
  std::size_t reopen_at_ = 0;
  std::size_t probes_used_ = 0;
  std::size_t probe_passes_seen_ = 0;
  std::size_t probes_total_ = 0;
  std::size_t recloses_ = 0;
  std::string trip_reason_;
};

}  // namespace caya
