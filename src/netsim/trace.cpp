#include "netsim/trace.h"

#include <sstream>

namespace caya {

std::string_view to_string(TracePoint point) noexcept {
  switch (point) {
    case TracePoint::kClientSent:
      return "client-sent";
    case TracePoint::kClientReceived:
      return "client-recv";
    case TracePoint::kServerSent:
      return "server-sent";
    case TracePoint::kServerReceived:
      return "server-recv";
    case TracePoint::kCensorSaw:
      return "censor-saw";
    case TracePoint::kCensorInjected:
      return "censor-inject";
    case TracePoint::kCensorDropped:
      return "censor-drop";
    case TracePoint::kLost:
      return "lost";
    case TracePoint::kDuplicated:
      return "duplicated";
    case TracePoint::kCorrupted:
      return "corrupted";
    case TracePoint::kReordered:
      return "reordered";
    case TracePoint::kCensorFault:
      return "censor-fault";
    case TracePoint::kCensorStage:
      return "censor-stage";
  }
  return "?";
}

std::vector<TraceEvent> Trace::at(TracePoint point) const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events_) {
    if (ev.point == point) out.push_back(ev);
  }
  return out;
}

std::string Trace::to_text() const {
  std::ostringstream os;
  for (const auto& ev : events_) {
    os << ev.at << "us  " << to_string(ev.point) << "  "
       << ev.packet.summary();
    if (!ev.note.empty()) os << "  (" << ev.note << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace caya
