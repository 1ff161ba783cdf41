// ASCII packet-waterfall renderer for Figures 1 and 2.
#pragma once

#include <string>

#include "netsim/trace.h"

namespace caya {

struct WaterfallOptions {
  std::size_t max_rows = 40;
};

/// Two-column (client | server) diagram in the style of the paper's
/// Figure 1: each row is one packet with its flags and an arrow showing
/// direction, e.g.
///
///   client                          server
///     | SYN                            |
///     |------------------------------->|
///     |                     RST        |
///     |<-------------------------------|
[[nodiscard]] std::string render_waterfall(const Trace& trace,
                                           const WaterfallOptions& options =
                                               {});

/// Short label for a packet row: flags plus payload/ack annotations, e.g.
/// "SYN/ACK (w/ load)" or "SYN/ACK (bad ackno)".
[[nodiscard]] std::string packet_label(const Packet& pkt,
                                       std::uint32_t expected_ack = 0);

}  // namespace caya
