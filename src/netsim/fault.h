// Scheduled middlebox faults: censor boxes in the wild flush state, restart,
// and stall (measurement work on the GFW and on Turkmenistan's firewall
// reports all three). A FaultSchedule attaches to a Middlebox; the Network
// applies due events lazily, when the next packet crosses the censor hop —
// observationally identical to applying them in the idle gap, and it keeps
// the discrete-event loop free of censor-owned timers.
//
//   kFlush   — per-flow state is wiped (Middlebox::flush()); the box keeps
//              forwarding and inspecting.
//   kStall   — the box is unresponsive for `duration`: it neither inspects
//              nor drops (fail-open, the deployment posture of every censor
//              the paper measures). State is preserved.
//   kRestart — kFlush plus a kStall outage of `duration` while rebooting.
#pragma once

#include <algorithm>
#include <vector>

#include "netsim/time.h"

namespace caya {

enum class FaultKind { kFlush, kStall, kRestart };

struct FaultEvent {
  Time at = 0;
  FaultKind kind = FaultKind::kFlush;
  Time duration = 0;  // outage length for kStall / kRestart
};

class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<FaultEvent> events)
      : events_(std::move(events)) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.at < b.at;
                     });
  }

  void add(FaultEvent event);

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }

  /// Events that became due since the last call (cursor advances past them).
  [[nodiscard]] std::vector<FaultEvent> take_due(Time now);

  /// True while `now` falls inside any kStall/kRestart outage window.
  [[nodiscard]] bool stalled_at(Time now) const noexcept;

  /// Rewinds the cursor (a fresh trial timeline reuses the schedule).
  void rewind() noexcept { next_ = 0; }

 private:
  std::vector<FaultEvent> events_;
  std::size_t next_ = 0;
};

}  // namespace caya
