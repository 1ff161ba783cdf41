// Per-layer probes for the traced run. Each probe times calls into one caya
// module's public functions from the benchmark's own code and reads the
// counters that module already exposes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "netsim/network.h"
#include "workloads.h"

namespace perfbench {

/// What one decomposed trial measured.
struct Probe {
  TrialDigest result;
  std::int64_t digest_ns = 0;
  std::int64_t reset_ns = 0;
  std::int64_t connection_ns = 0;
  AllocCount reset_allocs;
  AllocCount connection_allocs;
  caya::Network::PacketAccounting packets;  // created/delivered/dropped
  caya::Time sim_us = 0;                    // simulated time the trial took
};

/// Runs a trial the way a pooled run_trial does (digest the config, reset
/// a warm substrate of that shape to the trial's seed, run the connection)
/// but owns its substrates, so every step can be timed and counted from
/// outside. Results equal run_supervised_trial's on a healthy substrate.
class Prober {
 public:
  /// Spans, when given: "trial" under `parent`, with "digest", "reset" and
  /// "connection" children, all tagged `trial_id`.
  Probe probe(const TrialSpec& spec, SpanLog* spans = nullptr,
              std::uint32_t parent = SpanLog::kNone,
              std::uint64_t trial_id = 0);

  /// Reset + run_connection with caller-chosen options (trace recording).
  caya::TrialResult replay(const caya::Environment::Config& config,
                           const caya::ConnectionOptions& options);

 private:
  caya::Environment& substrate(const caya::Environment::Config& config,
                               std::uint64_t digest);
  void discard(std::uint64_t digest);

  std::vector<std::pair<std::uint64_t, std::unique_ptr<caya::Environment>>>
      envs_;
};

/// Runs every per-layer probe on `specs` within about `budget_s` seconds and
/// writes the eval, apps, tcpstack, netsim, censor, packet, geneva-engine,
/// parse and RNG metrics into `out`.
void measure_layers(const std::vector<TrialSpec>& specs,
                    const std::vector<std::string>& strategy_texts,
                    double budget_s, SpanLog* spans, Checker& checker,
                    MetricValues& out);

}  // namespace perfbench
