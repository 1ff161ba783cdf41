#include "eval/replay.h"
#include <fstream>

#include <map>

#include "censor/core/flow_table.h"
#include "censor/flow.h"
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
  CensorSet& censors = pooled_censor_set(country, seed);
  const std::vector<Middlebox*>& boxes = censors.boxes();
  auto censored_total = [&]() { return censors.censored_total(); };

  ReplayResult result;
  CountingInjector injector;
  // Flow orientation: the first bare SYN marks its sender as the client.
  std::map<FlowKey, bool> client_is_src;  // key oriented src->dst

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
    Packet pkt = std::move(decoded.value);
    injector.now_value = records[i].at;

    // key_for with an assumed direction: "forward" treats the source as the
    // client, "reverse" the destination.
    const FlowKey forward =
        FlowTable<bool>::key_for(pkt, Direction::kClientToServer);
    const FlowKey reverse =
        FlowTable<bool>::key_for(pkt, Direction::kServerToClient);
    Direction dir = Direction::kClientToServer;
    if (client_is_src.contains(forward)) {
      dir = Direction::kClientToServer;
    } else if (client_is_src.contains(reverse)) {
      dir = Direction::kServerToClient;
    } else if (pkt.tcp.flags == tcpflag::kSyn) {
      client_is_src[forward] = true;
    }

    const std::size_t before = censored_total();
    const std::size_t injected_before = injector.injected;
    for (Middlebox* box : boxes) {
      (void)box->on_packet(pkt, dir, injector);
    }
    if (censored_total() > before) {
      ++result.censor_events;
      result.events.push_back(
          {i, "censored: " + pkt.summary()});
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
