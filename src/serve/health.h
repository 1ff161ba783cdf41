// Online per-strategy health tracking for the serve-time orchestrator.
//
// Two complementary detectors watch the stream of flow outcomes a deployed
// strategy produces:
//
//   * an exponentially weighted moving average (EWMA) of success — the
//     "current success rate" a dashboard would show, and a hard floor the
//     breaker trips on when the strategy is plainly not working; and
//   * a Page–Hinkley test for *downward drift*: it accumulates how far each
//     outcome falls below the stream's running mean and alarms when the
//     cumulative shortfall exceeds a threshold. This catches the censor-
//     drift case the floor cannot: a strategy that was at 85% and silently
//     degrades to 50% is still above any sane floor, but the censor has
//     changed under it and failover should be considered.
//
// Everything here is a pure function of the outcome sequence — no clocks,
// no RNG — so health verdicts are byte-identical across --jobs values and
// across checkpoint resumes.
#pragma once

#include <cstddef>
#include <string>

namespace caya {

class SnapshotReader;
class SnapshotWriter;

class HealthMonitor {
 public:
  /// EWMA smoothing factor: weight of the newest outcome.
  static constexpr double kEwmaAlpha = 0.1;
  /// Outcomes before either detector may fire (the EWMA needs to settle and
  /// the Page–Hinkley mean needs a baseline).
  static constexpr std::size_t kWarmup = 12;
  /// Trip when the EWMA falls below this after warmup. The paper's working
  /// strategies sit near ~0.55 on China/HTTP; an EWMA with alpha 0.1
  /// fluctuates around that with sigma ~0.12, so 0.15 is a >3-sigma "plainly
  /// broken" floor that a fully collapsed strategy (≈0 success) still
  /// crosses within ~13 flows of the collapse.
  static constexpr double kEwmaFloor = 0.15;
  /// Page–Hinkley tolerance: drops smaller than this (per outcome, against
  /// the running mean) are treated as noise.
  static constexpr double kPhDelta = 0.1;
  /// Page–Hinkley alarm threshold on the cumulative shortfall. Against a
  /// healthy ~0.55 strategy the walk drifts up by delta per flow, so a
  /// false alarm needs a ~8/0.5-sigma excursion (p < 2e-3 per campaign);
  /// after a collapse to ~0 each failure contributes ~-0.45 and the alarm
  /// fires within ~18 flows.
  static constexpr double kPhLambda = 8.0;

  /// Feeds one flow outcome (true = the client got the content uncensored).
  void record(bool success);

  /// Cumulative-shortfall alarm (sticky until reset()).
  [[nodiscard]] bool drift_detected() const noexcept { return drifted_; }
  /// EWMA below the floor, after warmup.
  [[nodiscard]] bool below_floor() const noexcept;
  /// Either detector — the breaker's trip condition.
  [[nodiscard]] bool unhealthy() const noexcept {
    return drift_detected() || below_floor();
  }
  /// Why unhealthy() held, for health events ("drift" / "ewma-floor").
  [[nodiscard]] std::string reason() const;

  [[nodiscard]] double ewma() const noexcept { return ewma_; }
  [[nodiscard]] std::size_t observations() const noexcept { return count_; }

  /// Forgets all history (a breaker re-closing gives the strategy a clean
  /// slate; stale pre-trip statistics must not instantly re-trip it).
  void reset();

  /// Checkpoint support: every statistic, hexfloat-exact.
  void save(SnapshotWriter& writer, const std::string& key) const;
  void restore(const SnapshotReader& reader, const std::string& key);

 private:
  double ewma_ = 1.0;      // optimistic start; warmup gates decisions anyway
  std::size_t count_ = 0;
  double mean_sum_ = 0.0;  // running sum of outcomes (for the PH mean)
  double ph_m_ = 0.0;      // cumulative (x_t - mean_t + delta)
  double ph_max_ = 0.0;    // max over time of ph_m_
  bool drifted_ = false;
};

}  // namespace caya
