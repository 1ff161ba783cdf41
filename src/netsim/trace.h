// Packet trace recorder: the raw material for the paper's waterfall diagrams
// (Figures 1 and 2) and for test assertions about what crossed the wire.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "netsim/endpoint.h"
#include "netsim/time.h"
#include "packet/packet.h"

namespace caya {

enum class TracePoint {
  kClientSent,
  kClientReceived,
  kServerSent,
  kServerReceived,
  kCensorSaw,
  kCensorInjected,
  kCensorDropped,
  kLost,        // dropped by link loss, burst loss, a flap, or TTL expiry
  kDuplicated,  // link delivered a second copy
  kCorrupted,   // link flipped a bit (checksum left stale)
  kReordered,   // link added jitter delay to this traversal
  kCensorFault, // scheduled middlebox fault fired (flush/stall/restart)
  kCensorStage, // pipeline stage attribution (opt-in; note = box/stage)
};

[[nodiscard]] std::string_view to_string(TracePoint point) noexcept;

struct TraceEvent {
  Time at = 0;
  TracePoint point = TracePoint::kLost;
  Direction direction = Direction::kClientToServer;
  Packet packet;
  std::string note;  // e.g. which censor box injected/dropped
};

class Trace {
 public:
  /// Recording gate: while disabled, record() drops events without storing
  /// anything. The evaluation hot path runs thousands of trials whose traces
  /// nobody reads; disabling recording there removes a packet copy and a
  /// vector append per hop. Enabled by default.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    // A trial that records its trace appends per hop; pre-size the buffer
    // so the common case never reallocates mid-connection. clear() keeps
    // this capacity, so a recycled Trace pays the reserve once.
    if (enabled_ && events_.capacity() < kReserveOnEnable) {
      events_.reserve(kReserveOnEnable);
    }
  }
  [[nodiscard]] bool is_enabled() const noexcept { return enabled_; }

  void record(TraceEvent event) {
    if (enabled_) events_.push_back(std::move(event));
  }
  /// Piecewise form for hot call sites: the Packet copy and the note string
  /// are only materialized when recording is enabled.
  void record(Time at, TracePoint point, Direction direction,
              const Packet& packet, std::string_view note) {
    if (enabled_) {
      events_.push_back(
          TraceEvent{at, point, direction, packet, std::string(note)});
    }
  }
  void clear() { events_.clear(); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  /// Events at a given trace point, in time order.
  [[nodiscard]] std::vector<TraceEvent> at(TracePoint point) const;

  /// Multi-line "time  point  summary" dump for debugging.
  [[nodiscard]] std::string to_text() const;

 private:
  static constexpr std::size_t kReserveOnEnable = 128;

  std::vector<TraceEvent> events_;
  bool enabled_ = true;
};

}  // namespace caya
