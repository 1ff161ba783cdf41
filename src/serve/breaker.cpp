#include "serve/breaker.h"

#include <algorithm>
#include <cmath>

#include "util/snapshot.h"

namespace caya {

std::string_view to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

bool CircuitBreaker::advance(std::size_t flow) {
  if (state_ != BreakerState::kOpen || flow < reopen_at_) return false;
  state_ = BreakerState::kHalfOpen;
  probes_used_ = 0;
  probe_passes_seen_ = 0;
  return true;
}

bool CircuitBreaker::admits() const noexcept {
  if (state_ == BreakerState::kClosed) return true;
  return state_ == BreakerState::kHalfOpen && probes_used_ < kProbeFlows;
}

bool CircuitBreaker::would_admit(std::size_t flow) const noexcept {
  if (state_ == BreakerState::kOpen) {
    return flow >= reopen_at_;  // advance() would half-open with fresh quota
  }
  return admits();
}

void CircuitBreaker::trip(std::size_t flow, std::string reason) {
  ++trips_;
  ++consecutive_trips_;
  trip_reason_ = std::move(reason);
  // Exponential backoff in flows, capped, plus forked-RNG jitter. The jitter
  // stream is consumed only on trips, which happen in the sequential state
  // machine — so the schedule is deterministic for a fixed seed.
  double window = static_cast<double>(kBackoffBase) *
                  std::pow(kBackoffFactor,
                           static_cast<double>(consecutive_trips_ - 1));
  window = std::min(window, static_cast<double>(kBackoffCap));
  const auto jitter =
      static_cast<std::size_t>(rng_.uniform(0, kBackoffJitter));
  reopen_at_ = flow + static_cast<std::size_t>(window) + jitter;
  state_ = BreakerState::kOpen;
  // A future half-open re-close must judge the strategy on fresh evidence,
  // not on the statistics that tripped it.
  health_.reset();
}

CircuitBreaker::Transition CircuitBreaker::record(std::size_t flow,
                                                  bool success) {
  if (state_ == BreakerState::kClosed) {
    health_.record(success);
    if (health_.unhealthy()) {
      trip(flow, health_.reason());
      return Transition::kTripped;
    }
    return Transition::kNone;
  }
  // Half-open: spend one probe.
  ++probes_used_;
  ++probes_total_;
  if (success) ++probe_passes_seen_;
  // Decide as soon as the verdict is forced: enough passes re-closes early,
  // too many failures re-opens without burning the rest of the quota.
  const std::size_t failures = probes_used_ - probe_passes_seen_;
  constexpr std::size_t kMaxFailures = kProbeFlows - kProbePasses;
  if (probe_passes_seen_ >= kProbePasses) {
    state_ = BreakerState::kClosed;
    consecutive_trips_ = 0;
    ++recloses_;
    health_.reset();
    return Transition::kReclosed;
  }
  if (failures > kMaxFailures) {
    trip(flow, "probe-failure");
    return Transition::kReopened;
  }
  return Transition::kNone;
}

void CircuitBreaker::save(SnapshotWriter& writer,
                          const std::string& key) const {
  writer.record(key,
                {std::to_string(static_cast<int>(state_)),
                 std::to_string(trips_), std::to_string(consecutive_trips_),
                 std::to_string(reopen_at_), std::to_string(probes_used_),
                 std::to_string(probe_passes_seen_),
                 std::to_string(probes_total_), std::to_string(recloses_),
                 trip_reason_, rng_.save_state()});
  health_.save(writer, key + ".health");
}

void CircuitBreaker::restore(const SnapshotReader& reader,
                             const std::string& key) {
  const auto records = reader.all(key);
  if (records.size() != 1 || records[0]->fields.size() != 10) {
    throw SnapshotError("malformed breaker record \"" + key + "\"");
  }
  const auto& f = records[0]->fields;
  const std::uint64_t state = SnapshotReader::parse_u64(f[0]);
  if (state > 2) throw SnapshotError("bad breaker state in \"" + key + "\"");
  state_ = static_cast<BreakerState>(state);
  trips_ = SnapshotReader::parse_u64(f[1]);
  consecutive_trips_ = SnapshotReader::parse_u64(f[2]);
  reopen_at_ = SnapshotReader::parse_u64(f[3]);
  probes_used_ = SnapshotReader::parse_u64(f[4]);
  probe_passes_seen_ = SnapshotReader::parse_u64(f[5]);
  probes_total_ = SnapshotReader::parse_u64(f[6]);
  recloses_ = SnapshotReader::parse_u64(f[7]);
  trip_reason_ = f[8];
  rng_.restore_state(f[9]);
  health_.restore(reader, key + ".health");
}

}  // namespace caya
