// Wire-signature regression tests: for each published strategy, the exact
// sequence of handshake-phase packets the censor observes from the server
// must match the paper's Figure 1/2 diagrams. Catches silent regressions in
// the DSL, the action semantics, or the engine.
#include <gtest/gtest.h>

#include <ostream>

#include "eval/strategies.h"
#include "eval/trial.h"

namespace caya {
namespace {

struct Signature {
  int strategy_id;
  AppProtocol protocol;
  // Flags (+ "*" suffix when a payload is present) of the first server
  // packets crossing the censor, in order.
  std::vector<std::string> server_packets;
};

// Without this, GoogleTest prints a Signature as its raw bytes, heap
// pointers included, and CTest builds the case names from that print, so
// the names changed from one build to the next.
void PrintTo(const Signature& sig, std::ostream* os) {
  *os << "strategy" << sig.strategy_id << "_" << to_string(sig.protocol);
}

std::vector<std::string> observed_server_packets(int strategy_id,
                                                 AppProtocol proto,
                                                 std::size_t count) {
  Environment env({.country = Country::kChina,
                   .protocol = proto,
                   .seed = 3});
  ConnectionOptions options;
  options.server_strategy = parsed_strategy(strategy_id);
  options.record_trace = true;
  const TrialResult result = env.run_connection(options);

  std::vector<std::string> out;
  for (const auto& ev : result.trace.at(TracePoint::kCensorSaw)) {
    if (ev.direction != Direction::kServerToClient) continue;
    if (has_flag(ev.packet.tcp.flags, tcpflag::kRst) &&
        ev.note == "injected") {
      continue;  // censor-injected teardown, not the server's doing
    }
    std::string sig = flags_to_string(ev.packet.tcp.flags);
    if (!ev.packet.payload.empty()) sig += "*";
    out.push_back(sig);
    if (out.size() == count) break;
  }
  return out;
}

class WireSignature : public ::testing::TestWithParam<Signature> {};

TEST_P(WireSignature, HandshakePacketsMatchFigure) {
  const Signature& expected = GetParam();
  const auto observed = observed_server_packets(
      expected.strategy_id, expected.protocol,
      expected.server_packets.size());
  EXPECT_EQ(observed, expected.server_packets)
      << "strategy " << expected.strategy_id;
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, WireSignature,
    ::testing::Values(
        // Figure 1 (the asterisk marks a payload-bearing packet).
        Signature{1, AppProtocol::kHttp, {"R", "S"}},
        Signature{2, AppProtocol::kHttp, {"S", "S*"}},
        Signature{3, AppProtocol::kFtp, {"SA", "S"}},
        Signature{4, AppProtocol::kFtp, {"SA", "SA"}},
        Signature{5, AppProtocol::kFtp, {"SA", "SA*"}},
        Signature{6, AppProtocol::kHttp, {"F*", "SA", "SA"}},
        Signature{7, AppProtocol::kHttp, {"R", "SA", "SA"}},
        Signature{8, AppProtocol::kSmtp, {"SA"}},
        // Figure 2 renders against Kazakhstan, but the engine output is
        // country-independent; the censor-side sequence is what matters.
        Signature{9, AppProtocol::kHttp, {"SA*", "SA*", "SA*"}},
        Signature{10, AppProtocol::kHttp, {"SA*", "SA*"}},
        Signature{11, AppProtocol::kHttp, {"", "SA"}}));

TEST(WireSignature, Strategy8ShrinksTheWindowOnTheWire) {
  Environment env({.country = Country::kChina,
                   .protocol = AppProtocol::kSmtp,
                   .seed = 3});
  ConnectionOptions options;
  options.server_strategy = parsed_strategy(8);
  options.record_trace = true;
  const TrialResult result = env.run_connection(options);
  for (const auto& ev : result.trace.at(TracePoint::kCensorSaw)) {
    if (ev.direction == Direction::kServerToClient &&
        ev.packet.tcp.flags == (tcpflag::kSyn | tcpflag::kAck)) {
      EXPECT_EQ(ev.packet.tcp.window, 10);
      EXPECT_EQ(ev.packet.tcp.window_scale(), std::nullopt);
      return;
    }
  }
  FAIL() << "no SYN+ACK observed";
}

TEST(WireSignature, Strategy7CorruptAckDiffersFromOriginal) {
  Environment env({.country = Country::kChina,
                   .protocol = AppProtocol::kHttp,
                   .seed = 3});
  ConnectionOptions options;
  options.server_strategy = parsed_strategy(7);
  options.record_trace = true;
  const TrialResult result = env.run_connection(options);
  std::vector<std::uint32_t> synack_acks;
  for (const auto& ev : result.trace.at(TracePoint::kCensorSaw)) {
    if (ev.direction == Direction::kServerToClient &&
        ev.packet.tcp.flags == (tcpflag::kSyn | tcpflag::kAck)) {
      synack_acks.push_back(ev.packet.tcp.ack);
    }
    if (synack_acks.size() == 2) break;
  }
  ASSERT_EQ(synack_acks.size(), 2u);
  EXPECT_NE(synack_acks[0], synack_acks[1]);  // first is corrupted
}

}  // namespace
}  // namespace caya
