// Offline capture analysis: replay a pcap (ours or any LINKTYPE_RAW
// IPv4/TCP capture) through a censor model and report what it would have
// done — which packets trigger censorship, which flows get ignored.
#pragma once

#include <string>
#include <vector>

#include "eval/country.h"
#include "netsim/pcap.h"
#include "packet/decode.h"

namespace caya {

struct ReplayEvent {
  std::size_t packet_index = 0;  // index into the capture
  std::string description;       // e.g. "HTTP box censored flow"
};

struct ReplayResult {
  std::size_t packets = 0;
  std::size_t censor_events = 0;
  std::size_t injected_packets = 0;  // teardowns/block pages the censor
                                     // would have injected
  std::size_t skipped_records = 0;   // lenient pcap load: bad records skipped
  /// Fail-open accounting: per-taxonomy counts of records whose bytes never
  /// reached a censor because try_parse rejected them.
  DecodeStats decode;
  std::vector<ReplayEvent> events;
};

/// Replays the records through a fresh censor for `country`. Direction is
/// inferred per flow from the first SYN (client side); packets on flows
/// whose orientation is unknown are assumed client->server. Undecodable
/// records are accounted in `decode` (fail open), never thrown, and logged
/// as "decode-error: <kind> at offset <n>" events.
[[nodiscard]] ReplayResult replay_through_censor(
    const std::vector<PcapRecord>& records, Country country,
    std::uint64_t seed = 1);

/// Convenience: load the pcap file and replay it. Strict mode throws
/// std::invalid_argument (with the file offset of the first bad record) on
/// a damaged capture; lenient mode skips the bad tail and reports the count
/// in ReplayResult::skipped_records.
[[nodiscard]] ReplayResult replay_pcap_file(const std::string& path,
                                            Country country,
                                            std::uint64_t seed = 1,
                                            bool lenient = false);

}  // namespace caya
