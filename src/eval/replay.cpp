#include "eval/replay.h"

#include <fstream>

#include "eval/censor_set.h"

namespace caya {

namespace {

class CountingInjector : public Injector {
 public:
  void inject(Packet, Direction) override { ++injected; }
  [[nodiscard]] Time now() const override { return now_value; }

  std::size_t injected = 0;
  Time now_value = 0;
};

}  // namespace

ReplayResult replay_through_censor(const std::vector<PcapRecord>& records,
                                   Country country, std::uint64_t seed,
                                   Trace* trace) {
  OfflineFeed feed(pooled_censor_set(country, seed));
  ReplayResult result;
  CountingInjector injector;

  for (std::size_t i = 0; i < records.size(); ++i) {
    ++result.packets;
    // Non-throwing ingest: a record the decode layer rejects is an
    // accounted fail-open verdict, not an exception.
    auto decoded = Packet::try_parse(records[i].data);
    result.decode.note(decoded.error);
    if (!decoded.ok()) {
      std::string detail = std::string(to_string(decoded.error)) +
                           " at offset " +
                           std::to_string(decoded.error_offset);
      if (trace != nullptr) {
        TraceEvent event;
        event.at = records[i].at;
        event.point = TracePoint::kDecodeError;
        event.note = detail;
        trace->record(std::move(event));
      }
      result.events.push_back({i, "decode-error: " + std::move(detail)});
      continue;
    }
    const Packet& pkt = decoded.value;
    injector.now_value = records[i].at;

    const std::size_t injected_before = injector.injected;
    if (feed.feed(pkt, injector).censored) {
      ++result.censor_events;
      result.events.push_back({i, "censored: " + pkt.summary()});
    }
    result.injected_packets += injector.injected - injected_before;
  }
  return result;
}

ReplayResult replay_pcap_file(const std::string& path, Country country,
                              std::uint64_t seed, bool lenient) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  Bytes data((std::istreambuf_iterator<char>(file)),
             std::istreambuf_iterator<char>());
  PcapLoadResult loaded = try_from_pcap(data, lenient);
  if (!loaded.ok()) {
    if (loaded.error == DecodeError::kBadRecord) {
      throw std::invalid_argument("truncated pcap record at offset " +
                                  std::to_string(loaded.error_offset));
    }
    throw std::invalid_argument("not a (little-endian, usec) pcap stream");
  }
  ReplayResult result = replay_through_censor(loaded.records, country, seed);
  result.skipped_records = loaded.skipped;
  return result;
}

}  // namespace caya
