#include <gtest/gtest.h>

#include "eval/strategies.h"
#include "geneva/engine.h"
#include "geneva/parser.h"
#include "geneva/trigger.h"

namespace caya {
namespace {

Packet packet_with_flags(std::uint8_t flags) {
  return make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                         Ipv4Address::parse("10.0.0.2"), 40000, flags, 50000,
                         10001);
}

std::vector<Packet> outbound(Engine& engine, Packet pkt) {
  std::vector<Packet> out;
  engine.process_outbound_into(std::move(pkt), out);
  return out;
}

std::vector<Packet> inbound(Engine& engine, Packet pkt) {
  std::vector<Packet> out;
  engine.process_inbound_into(std::move(pkt), out);
  return out;
}

const Field& tcp(std::string_view name) {
  return lookup_field(Proto::kTcp, name);
}

TEST(Trigger, ExactFlagMatch) {
  const Trigger trigger{tcp("flags"), "SA"};
  EXPECT_TRUE(trigger.matches(packet_with_flags(tcpflag::kSyn |
                                                tcpflag::kAck)));
  // Exact match: "SA" does not match bare SYN or SYN+ACK+PSH.
  EXPECT_FALSE(trigger.matches(packet_with_flags(tcpflag::kSyn)));
  EXPECT_FALSE(trigger.matches(packet_with_flags(
      tcpflag::kSyn | tcpflag::kAck | tcpflag::kPsh)));
}

TEST(Trigger, NumericFieldMatch) {
  const Trigger trigger{tcp("dport"), "40000"};
  EXPECT_TRUE(trigger.matches(packet_with_flags(tcpflag::kSyn)));
  const Trigger other{tcp("dport"), "443"};
  EXPECT_FALSE(other.matches(packet_with_flags(tcpflag::kSyn)));
}

TEST(Trigger, UnknownFieldCannotBeConstructed) {
  // A trigger holds a row of the field table: an unknown name fails when it
  // is resolved, before any packet is seen.
  EXPECT_THROW((void)tcp("made-up"), std::invalid_argument);
  EXPECT_THROW((void)parse_strategy("[TCP:made-up:SA]-drop-|"), ParseError);
}

TEST(Trigger, ToStringForm) {
  const Trigger trigger{tcp("flags"), "SA"};
  EXPECT_EQ(trigger.to_string(), "[TCP:flags:SA]");
}

TEST(Engine, NonTriggeredPacketsPassThrough) {
  Engine engine(parsed_strategy(1), Rng(1));
  const auto out = outbound(engine, packet_with_flags(tcpflag::kAck));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kAck);
}

TEST(Engine, Strategy1RewritesSynAckToRstPlusSyn) {
  Engine engine(parsed_strategy(1), Rng(1));
  const auto out =
      outbound(engine, packet_with_flags(tcpflag::kSyn | tcpflag::kAck));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kRst);
  EXPECT_EQ(out[1].tcp.flags, tcpflag::kSyn);
  // Both keep the original sequence number (tamper only touches flags).
  EXPECT_EQ(out[0].tcp.seq, 50000u);
  EXPECT_EQ(out[1].tcp.seq, 50000u);
}

TEST(Engine, Strategy2EmitsCleanSynThenPayloadSyn) {
  Engine engine(parsed_strategy(2), Rng(1));
  const auto out =
      outbound(engine, packet_with_flags(tcpflag::kSyn | tcpflag::kAck));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kSyn);
  EXPECT_TRUE(out[0].payload.empty());
  EXPECT_EQ(out[1].tcp.flags, tcpflag::kSyn);
  EXPECT_FALSE(out[1].payload.empty());
}

TEST(Engine, Strategy6EmitsFinLoadCorruptAckThenOriginal) {
  Engine engine(parsed_strategy(6), Rng(1));
  const auto out =
      outbound(engine, packet_with_flags(tcpflag::kSyn | tcpflag::kAck));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kFin);
  EXPECT_FALSE(out[0].payload.empty());
  EXPECT_EQ(out[1].tcp.flags, tcpflag::kSyn | tcpflag::kAck);
  EXPECT_NE(out[1].tcp.ack, 10001u);  // corrupted
  EXPECT_EQ(out[2].tcp.flags, tcpflag::kSyn | tcpflag::kAck);
  EXPECT_EQ(out[2].tcp.ack, 10001u);  // original
}

TEST(Engine, Strategy8ShrinksWindowAndStripsWscale) {
  Engine engine(parsed_strategy(8), Rng(1));
  Packet sa = packet_with_flags(tcpflag::kSyn | tcpflag::kAck);
  sa.tcp.set_option(TcpOption::kWindowScale, {7});
  const auto out = outbound(engine, std::move(sa));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tcp.window, 10);
  EXPECT_EQ(out[0].tcp.window_scale(), std::nullopt);
}

TEST(Engine, Strategy11EmitsNullFlagsThenOriginal) {
  Engine engine(parsed_strategy(11), Rng(1));
  const auto out =
      outbound(engine, packet_with_flags(tcpflag::kSyn | tcpflag::kAck));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.flags, 0);
  EXPECT_EQ(out[1].tcp.flags, tcpflag::kSyn | tcpflag::kAck);
}

TEST(Engine, AmplificationTracksPacketBlowup) {
  Engine engine(parsed_strategy(7), Rng(1));  // 3 packets per SYN+ACK
  (void)outbound(engine, packet_with_flags(tcpflag::kSyn | tcpflag::kAck));
  (void)outbound(engine, packet_with_flags(tcpflag::kAck));
  // (3 + 1) packets out for 2 in.
  EXPECT_DOUBLE_EQ(engine.amplification(), 2.0);
}

TEST(Engine, FirstMatchingRuleWins) {
  Strategy s = parse_strategy(
      "[TCP:flags:SA]-drop-| [TCP:flags:SA]-duplicate-| \\/");
  Engine engine(std::move(s), Rng(1));
  const auto out =
      outbound(engine, packet_with_flags(tcpflag::kSyn | tcpflag::kAck));
  EXPECT_TRUE(out.empty());  // the first (drop) rule applied
}

TEST(Engine, InboundRulesApplySeparately) {
  Strategy s = parse_strategy("\\/ [TCP:flags:R]-drop-|");
  Engine engine(std::move(s), Rng(1));
  EXPECT_TRUE(inbound(engine, packet_with_flags(tcpflag::kRst)).empty());
  EXPECT_EQ(inbound(engine, packet_with_flags(tcpflag::kAck)).size(), 1u);
  // Outbound side has no rules: everything passes.
  EXPECT_EQ(outbound(engine, packet_with_flags(tcpflag::kRst)).size(), 1u);
}

}  // namespace
}  // namespace caya
