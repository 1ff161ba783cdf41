// Owning bundle of a country's censor middleboxes: the one place that knows
// which boxes a country runs, how they are seeded, how a fault schedule fans
// out over them, and how many flows they censored. Every Environment owns
// one for its trials; the offline ingest paths (capture replay, the
// adversarial fuzz oracle) build their own to feed *external* bytes to the
// same censor models.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "censor/gfw.h"
#include "eval/country.h"
#include "netsim/fault.h"
#include "netsim/middlebox.h"
#include "util/rng.h"

namespace caya {

class AirtelCensor;
class IranCensor;
class KazakhstanCensor;
class TurkmenistanCensor;

class CensorSet {
 public:
  /// Offline construction: the censor draws from Rng(seed) directly, and
  /// China runs its real multi-box deployment in the 2019 regime.
  CensorSet(Country country, std::uint64_t seed);

  /// Trial-substrate construction. The censor's stream is one fork of
  /// `stream`, taken only by the stochastic censors (China, Turkmenistan);
  /// the other countries leave `stream` untouched. China runs under
  /// `architecture` and `regime`. Every box gets its own copy of `faults`
  /// (its own cursor), so a colocated deployment flushes, stalls and
  /// restarts together.
  CensorSet(Country country, Rng& stream,
            ChinaCensor::Architecture architecture, GfwRegime regime,
            const FaultSchedule& faults);

  ~CensorSet();
  CensorSet(CensorSet&&) noexcept;
  CensorSet& operator=(CensorSet&&) noexcept;
  CensorSet(const CensorSet&) = delete;
  CensorSet& operator=(const CensorSet&) = delete;

  /// Full trial-substrate reinitialization: re-seeds exactly as the
  /// matching constructor does, wipes every box's flow state, cumulative
  /// counters and eviction ledgers, and rewinds its fault schedule —
  /// byte-identical to a fresh construction on fresh storage.
  void reset(std::uint64_t seed);
  void reset(Rng& stream);

  /// The country this set models.
  [[nodiscard]] Country country() const noexcept { return country_; }

  /// The middleboxes in deterministic order (China: one per protocol).
  [[nodiscard]] const std::vector<Middlebox*>& boxes() const noexcept {
    return boxes_;
  }

  /// China's deployment (per-protocol boxes and their residual state);
  /// null for every other country.
  [[nodiscard]] ChinaCensor* china() noexcept { return china_.get(); }

  /// Sum of censored-flow counts across every box.
  [[nodiscard]] std::size_t censored_total() const;

  /// Aggregated bounded-state ledger across every box.
  [[nodiscard]] Middlebox::StateStats state_stats() const;

  /// Sum of live per-flow state entries across every box.
  [[nodiscard]] std::size_t tcb_total() const;

 private:
  /// `next_stream()` yields the censor's RNG stream; only the stochastic
  /// censors call it, once each.
  template <typename NextStream>
  void build(ChinaCensor::Architecture architecture, GfwRegime regime,
             NextStream next_stream);
  template <typename NextStream>
  void reinit(NextStream next_stream);

  Country country_ = Country::kChina;
  std::unique_ptr<ChinaCensor> china_;
  std::unique_ptr<AirtelCensor> airtel_;
  std::unique_ptr<IranCensor> iran_;
  std::unique_ptr<KazakhstanCensor> kazakh_;
  std::unique_ptr<TurkmenistanCensor> turkmen_;
  std::vector<Middlebox*> boxes_;
};

/// Thread-local recycled CensorSet: returns a warm set for `country`,
/// reinitialized to `seed` — byte-identical to constructing a fresh
/// CensorSet(country, seed) but without rebuilding the boxes. Honors the
/// EnvironmentPool runtime gate: when pooling is disabled the cached set is
/// rebuilt from scratch on every call, so A/B equivalence runs compare
/// pooled-vs-fresh behaviour through the same accessor. The reference stays
/// valid until the next call for the same country on this thread.
[[nodiscard]] CensorSet& pooled_censor_set(Country country,
                                           std::uint64_t seed);

}  // namespace caya
