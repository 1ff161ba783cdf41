// The benchmark's four workloads. Each is a closed loop driven from one
// process: a round is a fixed unit of work built from the seed (every cell
// of a table, one GA campaign, one orchestrated flow stream), and the next
// operation starts only when the previous one has completed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eval/trial.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// One simulated connection that the layer probes can re-run outside the
/// program's own batch runners.
struct TrialSpec {
  caya::Environment::Config config;               // seed included
  const caya::ConnectionOptions* conn = nullptr;  // owned by the workload
  std::size_t index = 0;                          // supervision trial index
};

/// The parts of a trial's outcome the output checks compare.
struct TrialDigest {
  bool success = false;
  bool client_reset = false;
  bool timed_out = false;
  std::size_t censor_events = 0;
  double amplification = 1.0;
  caya::TrialErrorKind error = caya::TrialErrorKind::kNone;

  bool operator==(const TrialDigest&) const = default;
};

[[nodiscard]] TrialDigest digest_of(const caya::TrialResult& result,
                                    caya::TrialErrorKind error);

/// True for a supervised error that survived its retries; timeouts are
/// simulated outcomes, not failures.
[[nodiscard]] bool errored(caya::TrialErrorKind error) noexcept;

struct RoundStats {
  double seconds = 0.0;
  std::size_t attempted = 0;  // trials, fitness evaluations or flows
  std::size_t failed = 0;     // of those, supervised errors after retries
  std::size_t trials = 0;     // trials whose result was used
  std::size_t units = 0;      // GA generations or served flows
  std::uint64_t steals = 0;   // thread-pool steals during the round
  /// Canonical rendering of the round's outputs; equal for every round of
  /// one seed, at any jobs value.
  std::string fingerprint;
  /// Per-trial outcomes in index order (table workloads only).
  std::vector<TrialDigest> results;
};

/// Counts output checks and reports each failure on stderr.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::size_t failures() const noexcept { return failures_; }

 private:
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
};

using MetricValues = std::map<std::string, double, std::less<>>;


/// What the traced run learned about the timed rounds, for the metrics a
/// workload computes itself.
struct TraceContext {
  double untraced_round_s = 0.0;   // median untraced round time
  double reference_round_s = 0.0;  // the jobs-1 reference pass (check())
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Workers the timed rounds use (1 = the calling thread only).
  [[nodiscard]] virtual std::size_t jobs() const noexcept = 0;

  /// Builds every input from the seed (strategies, configs, failover
  /// chain) and shelves a freshly built substrate for each configuration
  /// shape on the calling thread's pool. Repeatable: the caller empties the
  /// shelves first, so setup_s can be a median over several calls.
  virtual void setup() = 0;

  /// One round at `jobs` workers. Adds one latency per operation, in
  /// microseconds, to `op_us`. With a span log, records spans around the calls it makes.
  virtual RoundStats round(std::size_t jobs, SpanLog* spans,
                           Latencies& op_us) = 0;

  /// Output checks against the program's own batch runners (and, for the
  /// success-rate table, the paper). `timed` is a round of the timed loop.
  /// Runs the workload's jobs-1 reference pass on the calling thread and
  /// returns the number of trials it ran.
  virtual std::size_t check(const RoundStats& timed, Checker& checker) = 0;

  /// Trials the per-layer probes re-run; deterministic for a seed.
  [[nodiscard]] virtual std::vector<TrialSpec> layer_specs() = 0;

  /// Strategy texts the workload deploys (parse and engine probes).
  [[nodiscard]] virtual std::vector<std::string> strategy_texts() = 0;

  /// Per-layer metrics only this workload can measure (GA, serve,
  /// parallel efficiency); runs extra passes where it needs them.
  virtual void trace_metrics(const TraceContext& context, MetricValues& out,
                             Checker& checker) = 0;
};

[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace perfbench
