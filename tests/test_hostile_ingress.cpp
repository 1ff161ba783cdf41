// Bounded censor state under floods + the adversarial fuzz subsystem.
//
// The state-exhaustion scenarios here are the attacks a real middlebox eats
// daily: SYN floods that try to grow the flow table without bound, and
// out-of-order segment floods aimed at the reassembly buffers. The pipeline
// must shed state deterministically (oldest first), account every shed in
// the StateStats ledger, and keep failing OPEN — bystander flows sail
// through a flooded censor untouched.
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "censor/core/flow_table.h"
#include "censor/core/reassembler.h"
#include "eval/censor_set.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "fuzz/oracle.h"
#include "packet/tcp_flags.h"

namespace caya {
namespace {

class NullInjector : public Injector {
 public:
  void inject(Packet, Direction) override { ++injected; }
  [[nodiscard]] Time now() const override { return 0; }
  std::size_t injected = 0;
};

FlowKey key_of(std::uint32_t client, std::uint16_t cport) {
  return {client, cport, 0x0a000001, 80};
}

TEST(FlowTableBudget, EvictsOldestDeterministically) {
  FlowTable<int> table;
  table.set_flow_budget(4);
  for (std::uint16_t i = 0; i < 6; ++i) {
    auto [state, inserted] = table.try_emplace(key_of(0x0b000001, 1000 + i));
    ASSERT_TRUE(inserted);
    *state = i;
  }
  // Budget 4, 6 inserts: the two oldest (1000, 1001) are gone.
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.evicted(), 2u);
  EXPECT_EQ(table.find(key_of(0x0b000001, 1000)), nullptr);
  EXPECT_EQ(table.find(key_of(0x0b000001, 1001)), nullptr);
  for (std::uint16_t i = 2; i < 6; ++i) {
    ASSERT_NE(table.find(key_of(0x0b000001, 1000 + i)), nullptr);
    EXPECT_EQ(*table.find(key_of(0x0b000001, 1000 + i)), i);
  }
  // The ledger is cumulative across reset(); the flows are not.
  table.reset();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evicted(), 2u);
}

TEST(FlowTableBudget, SustainedFloodStaysAtBudget) {
  FlowTable<int> table;
  table.set_flow_budget(128);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    (void)table.try_emplace(
        key_of(0x0b000000 + i / 60000,
               static_cast<std::uint16_t>(1024 + i % 60000)));
    ASSERT_LE(table.size(), 128u);
  }
  EXPECT_EQ(table.size(), 128u);
  EXPECT_EQ(table.evicted(), 10000u - 128u);
}

TEST(ReassemblerBudget, SegmentAndByteBudgetsHold) {
  Reassembler reassembler;
  reassembler.rebase(0);
  reassembler.set_budgets(/*max_segments=*/4, /*max_bytes=*/64);
  const Bytes chunk(10, 0xab);
  // Non-contiguous segments buffer individually.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(reassembler.add_segment(100 + i * 50, chunk));
  }
  EXPECT_FALSE(reassembler.add_segment(900, chunk));  // segment budget
  EXPECT_EQ(reassembler.buffered_bytes(), 40u);

  Reassembler bytes_bound;
  bytes_bound.rebase(0);
  bytes_bound.set_budgets(1024, 64);
  EXPECT_TRUE(bytes_bound.add_segment(0, Bytes(60, 1)));
  EXPECT_FALSE(bytes_bound.add_segment(1000, Bytes(10, 2)));  // byte budget
  // Overwriting an existing seq is allowed only within the byte budget.
  EXPECT_FALSE(bytes_bound.add_segment(0, Bytes(100, 3)));
  EXPECT_TRUE(bytes_bound.add_segment(0, Bytes(32, 4)));
  EXPECT_EQ(bytes_bound.buffered_bytes(), 32u);
  // Zero-length segments are ignored (they cannot advance reassembly).
  EXPECT_TRUE(bytes_bound.add_segment(500, {}));
  EXPECT_EQ(bytes_bound.buffered_bytes(), 32u);
}

// A SYN flood 2000 flows past the budget: every censor's state stays at or
// under budget, the shed flows land in the ledger, and a bystander flow
// transiting the flooded censor is untouched (fail open).
TEST(HostileIngress, SynFloodBoundedAndFailOpen) {
  const std::size_t kBudget = 65536;  // FlowTable::kDefaultFlowBudget
  const std::size_t kFlood = kBudget + 2000;
  for (Country country : all_countries()) {
    CensorSet censors(country, 1);
    NullInjector injector;
    for (std::size_t i = 0; i < kFlood; ++i) {
      const Packet syn = make_tcp_packet(
          Ipv4Address(static_cast<std::uint32_t>(0x0b010000 + i / 60000)),
          static_cast<std::uint16_t>(1024 + i % 60000),
          Ipv4Address(0x0a000001), 80, tcpflag::kSyn,
          static_cast<std::uint32_t>(i), 0);
      for (Middlebox* box : censors.boxes()) {
        (void)box->on_packet(syn, Direction::kClientToServer, injector);
      }
    }
    for (const Middlebox* box : censors.boxes()) {
      EXPECT_LE(box->tcb_count(), kBudget)
          << to_string(country) << ": a flow table exceeded its budget";
    }
    if (country == Country::kChina || country == Country::kKazakhstan ||
        country == Country::kTurkmenistan) {
      EXPECT_GE(censors.state_stats().evicted_flows, 2000u)
          << to_string(country);
    }

    // Fail open: the bystander flow crosses the flooded censor untouched.
    const std::size_t censored_before = censors.censored_total();
    const std::size_t injected_before = injector.injected;
    for (const PcapRecord& record : make_innocuous_flow()) {
      const auto decoded = Packet::try_parse(record.data);
      ASSERT_TRUE(decoded.ok());
      const Direction dir =
          decoded.value.ip.src == innocuous_client()
              ? Direction::kClientToServer
              : Direction::kServerToClient;
      for (Middlebox* box : censors.boxes()) {
        const Verdict verdict =
            box->on_packet(decoded.value, dir, injector);
        EXPECT_EQ(verdict, Verdict::kPass) << to_string(country);
      }
    }
    EXPECT_EQ(censors.censored_total(), censored_before) << to_string(country);
    EXPECT_EQ(injector.injected, injected_before) << to_string(country);
  }
}

// An out-of-order segment flood against one flow: the reassembler sheds
// segments past its budget into the dropped_segments ledger and the censor
// keeps running.
TEST(HostileIngress, SegmentOverlapFloodBounded) {
  CensorSet censors(Country::kChina, 1);
  NullInjector injector;
  const auto client = Ipv4Address(0x0b020001);
  const auto server = Ipv4Address(0x0a000001);
  const Packet syn =
      make_tcp_packet(client, 2000, server, 80, tcpflag::kSyn, 100, 0);
  for (Middlebox* box : censors.boxes()) {
    (void)box->on_packet(syn, Direction::kClientToServer, injector);
  }
  // 2000 non-contiguous 300-byte segments: blows the 1024-segment and
  // 256 KiB per-flow budgets several times over.
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const Packet seg = make_tcp_packet(
        client, 2000, server, 80, tcpflag::kAck,
        101 + 1000 + i * 600,  // always leaves a hole at 101
        1, Bytes(300, static_cast<std::uint8_t>(i)));
    for (Middlebox* box : censors.boxes()) {
      (void)box->on_packet(seg, Direction::kClientToServer, injector);
    }
  }
  EXPECT_GT(censors.state_stats().dropped_segments, 0u);
  EXPECT_EQ(censors.censored_total(), 0u);
}

TEST(Fuzz, ReportIsDeterministicAcrossJobs) {
  FuzzConfig config;
  config.country = Country::kChina;
  config.iters = 60;
  config.seed = 99;
  config.jobs = 1;
  const FuzzReport serial = run_fuzz(config);
  config.jobs = 4;
  const FuzzReport parallel = run_fuzz(config);

  EXPECT_EQ(serial.records, parallel.records);
  EXPECT_EQ(serial.censor_events, parallel.censor_events);
  EXPECT_EQ(serial.injected, parallel.injected);
  EXPECT_EQ(serial.decode.counts, parallel.decode.counts);
  EXPECT_EQ(serial.kind_counts, parallel.kind_counts);
  EXPECT_EQ(serial.crashes, parallel.crashes);
  EXPECT_EQ(serial.fail_closed, parallel.fail_closed);
  EXPECT_EQ(serial.findings.size(), parallel.findings.size());
}

TEST(Fuzz, AllCensorsCleanOnSmokeCampaign) {
  for (Country country : all_countries()) {
    FuzzConfig config;
    config.country = country;
    config.iters = 40;
    config.seed = 7;
    config.jobs = 2;
    const FuzzReport report = run_fuzz(config);
    EXPECT_EQ(report.crashes, 0u) << to_string(country);
    EXPECT_EQ(report.fail_closed, 0u) << to_string(country);
    EXPECT_GT(report.records, 0u);
    // Some mutations must survive decoding and some must be rejected —
    // otherwise the campaign is not exercising both sides of the oracle.
    EXPECT_GT(report.decode.successes(), 0u);
    EXPECT_GT(report.decode.failures(), 0u);
  }
}

TEST(Fuzz, MutationKindsAllExercised) {
  FuzzConfig config;
  config.iters = 200;
  config.seed = 3;
  config.jobs = 2;
  const FuzzReport report = run_fuzz(config);
  for (std::size_t k = 0; k < kMutationKindCount; ++k) {
    EXPECT_GT(report.kind_counts[k], 0u)
        << "kind never drawn: "
        << to_string(static_cast<MutationKind>(k));
  }
}

TEST(Fuzz, CorpusDumpAndReplayRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "caya_corpus_test").string();
  std::filesystem::remove_all(dir);

  Rng rng(42);
  const HostileStream stream =
      generate_hostile_stream(Country::kIran, rng);
  const std::string path =
      dump_corpus_entry(dir, Country::kIran, 42, 7, stream.records);
  EXPECT_EQ(std::filesystem::path(path).filename().string(),
            "crash-Iran-seed42-iter7.pcap");
  ASSERT_TRUE(std::filesystem::exists(path));

  // Replaying the dump reproduces the original oracle outcome exactly.
  const OracleOutcome direct = run_oracle(Country::kIran, 42, stream.records);
  const OracleOutcome replayed =
      replay_corpus_entry(path, Country::kIran, 42);
  EXPECT_EQ(replayed.records, direct.records);
  EXPECT_EQ(replayed.decode.counts, direct.decode.counts);
  EXPECT_EQ(replayed.censor_events, direct.censor_events);
  EXPECT_EQ(replayed.crashed, direct.crashed);
  EXPECT_EQ(replayed.fail_closed, direct.fail_closed);
  std::filesystem::remove_all(dir);
}

TEST(Fuzz, IterationSeedsAreDecorrelated) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) {
    seeds.insert(fuzz_iteration_seed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(fuzz_iteration_seed(1, 0), fuzz_iteration_seed(2, 0));
}

TEST(Fuzz, IterationSeedsArePinned) {
  // Corpus entries are replayed by (campaign seed, iteration), so the
  // derivation may never change, whatever happens to the Rng engine.
  EXPECT_EQ(fuzz_iteration_seed(1, 0), 0xe9fd6049d65af21eULL);
  EXPECT_EQ(fuzz_iteration_seed(7, 12345), 0x6c4a7de206938933ULL);
}

}  // namespace
}  // namespace caya
