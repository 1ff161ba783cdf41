#include "eval/censor_set.h"

#include "eval/env_pool.h"

#include "censor/airtel.h"
#include "censor/iran.h"
#include "censor/kazakhstan.h"
#include "censor/turkmenistan.h"

namespace caya {

template <typename NextStream>
void CensorSet::build(ChinaCensor::Architecture architecture,
                      GfwRegime regime, NextStream next_stream) {
  const ForbiddenContent content = forbidden_content(country_);
  switch (country_) {
    case Country::kChina:
      china_ = std::make_unique<ChinaCensor>(content, next_stream(),
                                             architecture, regime);
      boxes_ = china_->middleboxes();
      break;
    case Country::kIndia:
      airtel_ = std::make_unique<AirtelCensor>(content);
      boxes_ = {airtel_.get()};
      break;
    case Country::kIran:
      iran_ = std::make_unique<IranCensor>(content);
      boxes_ = {iran_.get()};
      break;
    case Country::kKazakhstan:
      kazakh_ = std::make_unique<KazakhstanCensor>(content);
      boxes_ = {kazakh_.get()};
      break;
    case Country::kTurkmenistan:
      turkmen_ = std::make_unique<TurkmenistanCensor>(content, next_stream());
      boxes_ = {turkmen_.get()};
      break;
  }
}

template <typename NextStream>
void CensorSet::reinit(NextStream next_stream) {
  if (china_) china_->reinit(next_stream());
  if (airtel_) airtel_->reinit();
  if (iran_) iran_->reinit();
  if (kazakh_) kazakh_->reinit();
  if (turkmen_) turkmen_->reinit(next_stream());
}

CensorSet::CensorSet(Country country, std::uint64_t seed)
    : country_(country) {
  build(ChinaCensor::Architecture::kMultiBox, GfwRegime::kEra2019,
        [seed] { return Rng(seed); });
}

CensorSet::CensorSet(Country country, Rng& stream,
                     ChinaCensor::Architecture architecture,
                     GfwRegime regime, const FaultSchedule& faults)
    : country_(country) {
  build(architecture, regime, [&stream] { return stream.fork(); });
  for (Middlebox* box : boxes_) box->set_fault_schedule(faults);
}

void CensorSet::reset(std::uint64_t seed) {
  reinit([seed] { return Rng(seed); });
}

void CensorSet::reset(Rng& stream) {
  reinit([&stream] { return stream.fork(); });
}

CensorSet::~CensorSet() = default;
CensorSet::CensorSet(CensorSet&&) noexcept = default;
CensorSet& CensorSet::operator=(CensorSet&&) noexcept = default;

std::size_t CensorSet::censored_total() const {
  std::size_t total = 0;
  if (china_) {
    for (const AppProtocol proto : all_protocols()) {
      total += china_->box(proto).censored_count();
    }
  }
  if (airtel_) total += airtel_->censored_count();
  if (iran_) total += iran_->censored_count();
  if (kazakh_) total += kazakh_->censored_count();
  if (turkmen_) total += turkmen_->censored_count();
  return total;
}

Middlebox::StateStats CensorSet::state_stats() const {
  Middlebox::StateStats total;
  for (const Middlebox* box : boxes_) {
    const Middlebox::StateStats stats = box->state_stats();
    total.evicted_flows += stats.evicted_flows;
    total.dropped_segments += stats.dropped_segments;
  }
  return total;
}

std::size_t CensorSet::tcb_total() const {
  std::size_t total = 0;
  for (const Middlebox* box : boxes_) total += box->tcb_count();
  return total;
}

CensorSet& pooled_censor_set(Country country, std::uint64_t seed) {
  // unique_ptr elements keep addresses stable across cache growth, so the
  // returned reference survives later calls for *other* countries.
  static thread_local std::vector<std::unique_ptr<CensorSet>> cache;
  for (auto& set : cache) {
    if (set->country() == country) {
      if (EnvironmentPool::enabled()) {
        set->reset(seed);
      } else {
        *set = CensorSet(country, seed);  // gate off: rebuild from scratch
      }
      return *set;
    }
  }
  cache.push_back(std::make_unique<CensorSet>(country, seed));
  return *cache.back();
}

}  // namespace caya
