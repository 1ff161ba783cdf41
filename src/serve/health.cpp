#include "serve/health.h"

#include <algorithm>

#include "util/snapshot.h"

namespace caya {

void HealthMonitor::record(bool success) {
  const double x = success ? 1.0 : 0.0;
  ++count_;
  // The EWMA starts from the optimistic 1.0 rather than snapping to the
  // first sample: a cold start whose first flow happens to fail must not
  // pin the average near zero and floor-trip the moment warmup ends.
  ewma_ += kEwmaAlpha * (x - ewma_);

  // Page–Hinkley, falling-mean variant: m_t accumulates (x_t - mean_t + d);
  // persistent below-mean outcomes drive m_t down while max(m) remembers the
  // healthy plateau. Alarm when the gap exceeds lambda.
  mean_sum_ += x;
  const double mean = mean_sum_ / static_cast<double>(count_);
  ph_m_ += x - mean + kPhDelta;
  ph_max_ = std::max(ph_max_, ph_m_);
  if (count_ > kWarmup && ph_max_ - ph_m_ > kPhLambda) {
    drifted_ = true;
  }
}

bool HealthMonitor::below_floor() const noexcept {
  return count_ > kWarmup && ewma_ < kEwmaFloor;
}

std::string HealthMonitor::reason() const {
  if (drift_detected()) return "drift";
  if (below_floor()) return "ewma-floor";
  return "healthy";
}

void HealthMonitor::reset() {
  ewma_ = 1.0;
  count_ = 0;
  mean_sum_ = 0.0;
  ph_m_ = 0.0;
  ph_max_ = 0.0;
  drifted_ = false;
}

void HealthMonitor::save(SnapshotWriter& writer,
                         const std::string& key) const {
  writer.record(key,
                {SnapshotWriter::format_double(ewma_),
                 std::to_string(count_),
                 SnapshotWriter::format_double(mean_sum_),
                 SnapshotWriter::format_double(ph_m_),
                 SnapshotWriter::format_double(ph_max_),
                 drifted_ ? "1" : "0"});
}

void HealthMonitor::restore(const SnapshotReader& reader,
                            const std::string& key) {
  const auto records = reader.all(key);
  if (records.size() != 1 || records[0]->fields.size() != 6) {
    throw SnapshotError("malformed health record \"" + key + "\"");
  }
  const auto& f = records[0]->fields;
  ewma_ = SnapshotReader::parse_double(f[0]);
  count_ = SnapshotReader::parse_u64(f[1]);
  mean_sum_ = SnapshotReader::parse_double(f[2]);
  ph_m_ = SnapshotReader::parse_double(f[3]);
  ph_max_ = SnapshotReader::parse_double(f[4]);
  drifted_ = f[5] == "1";
}

}  // namespace caya
