#include "eval/waterfall.h"

#include <sstream>

namespace caya {

std::string packet_label(const Packet& pkt, std::uint32_t expected_ack) {
  std::string label;
  const std::string flags = flags_to_string(pkt.tcp.flags);
  if (flags.empty()) {
    label = "(no flags)";
  } else {
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (i > 0) label += "/";
      switch (flags[i]) {
        case 'F':
          label += "FIN";
          break;
        case 'S':
          label += "SYN";
          break;
        case 'R':
          label += "RST";
          break;
        case 'P':
          label += "PSH";
          break;
        case 'A':
          label += "ACK";
          break;
        default:
          label += flags[i];
      }
    }
  }
  if (!pkt.payload.empty()) label += " (w/ load)";
  if (expected_ack != 0 && has_flag(pkt.tcp.flags, tcpflag::kAck) &&
      pkt.tcp.ack != expected_ack) {
    label += " (bad ackno)";
  }
  return label;
}

std::string render_waterfall(const Trace& trace,
                             const WaterfallOptions& options) {
  constexpr int kWidth = 36;
  std::ostringstream os;
  os << "  client" << std::string(kWidth - 6, ' ') << "server\n";

  std::size_t rows = 0;
  for (const auto& ev : trace.events()) {
    // The endpoint view: what the client sent and what reached it.
    if (ev.point != TracePoint::kClientSent &&
        ev.point != TracePoint::kClientReceived) {
      continue;
    }
    if (++rows > options.max_rows) {
      os << "    ... (truncated)\n";
      break;
    }

    const std::string label = packet_label(ev.packet);
    if (ev.point == TracePoint::kClientSent) {
      os << "    | " << label << "\n";
      os << "    |" << std::string(kWidth - 2, '-') << ">|\n";
    } else {
      const std::size_t pad =
          label.size() + 4 < kWidth ? kWidth - label.size() - 4 : 1;
      os << "    |" << std::string(pad, ' ') << label << "\n";
      os << "    |<" << std::string(kWidth - 2, '-') << "|\n";
    }
  }
  return os.str();
}

}  // namespace caya
