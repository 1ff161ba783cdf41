#include "eval/replay.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "eval/strategies.h"
#include "eval/trial.h"

namespace caya {
namespace {

// Record a live trial's censor-view pcap, then replay it offline.
Bytes capture(Country country, AppProtocol proto,
              const std::optional<Strategy>& strategy, std::uint64_t seed) {
  Environment env({.country = country, .protocol = proto, .seed = seed});
  ConnectionOptions options;
  options.server_strategy = strategy;
  options.record_trace = true;
  const TrialResult result = env.run_connection(options);
  return to_pcap(result.trace);
}

TEST(Replay, CensoredTrialReplaysAsCensored) {
  const Bytes pcap = capture(Country::kChina, AppProtocol::kHttp,
                             std::nullopt, 11);
  const ReplayResult result =
      replay_through_censor(from_pcap(pcap), Country::kChina, 11);
  EXPECT_GE(result.packets, 4u);
  EXPECT_EQ(result.decode.failures(), 0u);
  EXPECT_GT(result.censor_events, 0u);
  EXPECT_GT(result.injected_packets, 0u);
  ASSERT_FALSE(result.events.empty());
  EXPECT_NE(result.events[0].description.find("censored"),
            std::string::npos);
}

TEST(Replay, EvadedTrialReplaysClean) {
  // A successful Strategy-1 run: the on-wire packets must ALSO evade a
  // fresh censor instance offline (same seed -> same resync draws).
  for (std::uint64_t seed = 1; seed < 50; ++seed) {
    Environment env({.country = Country::kChina,
                     .protocol = AppProtocol::kHttp,
                     .seed = seed});
    ConnectionOptions options;
    options.server_strategy = parsed_strategy(1);
    options.record_trace = true;
    const TrialResult live = env.run_connection(options);
    if (!live.success) continue;
    const ReplayResult replayed = replay_through_censor(
        from_pcap(to_pcap(live.trace)), Country::kChina, seed * 7 + 1);
    // The replay censor draws fresh randomness, so ~half of evaded runs
    // may be caught; but at least the capture must parse fully.
    EXPECT_EQ(replayed.decode.failures(), 0u);
    return;
  }
  FAIL() << "no successful run found to replay";
}

TEST(Replay, IndiaBlockPageCounted) {
  const Bytes pcap = capture(Country::kIndia, AppProtocol::kHttp,
                             std::nullopt, 5);
  const ReplayResult result =
      replay_through_censor(from_pcap(pcap), Country::kIndia, 5);
  EXPECT_GT(result.censor_events, 0u);
  EXPECT_GE(result.injected_packets, 2u);  // block page + RST
}

TEST(Replay, GarbageRecordsAreCountedNotFatal) {
  std::vector<PcapRecord> records;
  records.push_back({0, to_bytes("not an ip packet")});
  const ReplayResult result =
      replay_through_censor(records, Country::kChina, 1);
  EXPECT_EQ(result.packets, 1u);
  EXPECT_EQ(result.decode.failures(), 1u);
  EXPECT_EQ(result.censor_events, 0u);
  // The event log names the decode error and where it was found.
  EXPECT_EQ(result.decode.successes(), 0u);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_NE(result.events[0].description.find("decode-error"),
            std::string::npos);
  EXPECT_NE(result.events[0].description.find("offset"), std::string::npos);
}

TEST(Replay, LenientFileLoadSkipsDamagedTail) {
  const Bytes pcap = capture(Country::kChina, AppProtocol::kHttp,
                             std::nullopt, 11);
  const std::size_t intact_records = from_pcap(pcap).size();
  Bytes damaged = pcap;
  damaged.resize(damaged.size() - 3);
  const std::string path = ::testing::TempDir() + "/caya_damaged.pcap";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(reinterpret_cast<const char*>(damaged.data()),
               static_cast<std::streamsize>(damaged.size()));
  }
  // Strict: structured failure naming the offset of the first bad record.
  try {
    (void)replay_pcap_file(path, Country::kChina, 11);
    FAIL() << "strict load of a damaged capture must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  // Lenient: the good prefix replays, the bad tail is counted.
  const ReplayResult result =
      replay_pcap_file(path, Country::kChina, 11, /*lenient=*/true);
  EXPECT_EQ(result.skipped_records, 1u);
  EXPECT_EQ(result.packets, intact_records - 1);
  EXPECT_EQ(result.decode.failures(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace caya
