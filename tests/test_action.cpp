#include "geneva/action.h"

#include <gtest/gtest.h>

namespace caya {
namespace {

Packet synack() {
  Packet pkt = make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                               Ipv4Address::parse("10.0.0.2"), 40000,
                               tcpflag::kSyn | tcpflag::kAck, 50000, 10001);
  pkt.tcp.set_option(TcpOption::kWindowScale, {7});
  return pkt;
}

const Field& tcp(std::string_view name) {
  return lookup_field(Proto::kTcp, name);
}

std::vector<Packet> run(const Action& action, Packet pkt, std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<Packet> out;
  action.run(std::move(pkt), rng, out);
  return out;
}

TEST(Action, SendEmitsPacketUnchanged) {
  // Plain send is the null slot.
  Rng rng(1);
  std::vector<Packet> out;
  run_action(nullptr, synack(), rng, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kSyn | tcpflag::kAck);
}

TEST(Action, DropEmitsNothing) {
  DropAction drop;
  EXPECT_TRUE(run(drop, synack()).empty());
}

TEST(Action, NullChildrenDefaultToSend) {
  DuplicateAction dup;
  const auto out = run(dup, synack());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.seq, out[1].tcp.seq);
}

TEST(Action, DuplicateOrderFirstThenSecond) {
  DuplicateAction dup(
      std::make_unique<TamperAction>(tcp("flags"), TamperMode::kReplace, "R"),
      std::make_unique<TamperAction>(tcp("flags"), TamperMode::kReplace, "S"));
  const auto out = run(dup, synack());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kRst);
  EXPECT_EQ(out[1].tcp.flags, tcpflag::kSyn);
}

TEST(Action, TamperReplaceRecomputesChecksum) {
  TamperAction tamper(tcp("flags"), TamperMode::kReplace, "S");
  const auto out = run(tamper, synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].tcp_checksum_valid());
}

TEST(Action, TamperOnChecksumPinsIt) {
  TamperAction tamper(tcp("chksum"), TamperMode::kReplace, "1234");
  const auto out = run(tamper, synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].tcp_checksum_overridden);
  EXPECT_FALSE(out[0].tcp_checksum_valid());
}

TEST(Action, TamperCorruptLoadAddsPayload) {
  TamperAction tamper(tcp("load"), TamperMode::kCorrupt, "");
  const auto out = run(tamper, synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].payload.empty());
}

TEST(Action, TamperChainsThroughChild) {
  auto child =
      std::make_unique<TamperAction>(tcp("window"), TamperMode::kReplace, "10");
  TamperAction tamper(tcp("options-wscale"), TamperMode::kReplace, "",
                      std::move(child));
  const auto out = run(tamper, synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tcp.window, 10);
  EXPECT_EQ(out[0].tcp.window_scale(), std::nullopt);
}

TEST(Action, FragmentTcpSplitsPayloadAndAdjustsSeq) {
  Packet pkt = synack();
  pkt.tcp.flags = tcpflag::kPsh | tcpflag::kAck;
  pkt.payload = to_bytes("HELLOWORLD");
  FragmentAction frag(Proto::kTcp, 5, /*in_order=*/true);
  const auto out = run(frag, pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(to_string(out[0].payload), "HELLO");
  EXPECT_EQ(to_string(out[1].payload), "WORLD");
  EXPECT_EQ(out[1].tcp.seq, out[0].tcp.seq + 5);
}

TEST(Action, FragmentOutOfOrderSwapsDelivery) {
  Packet pkt = synack();
  pkt.payload = to_bytes("HELLOWORLD");
  FragmentAction frag(Proto::kTcp, 5, /*in_order=*/false);
  const auto out = run(frag, pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(to_string(out[0].payload), "WORLD");
  EXPECT_EQ(to_string(out[1].payload), "HELLO");
}

TEST(Action, FragmentOffsetClampedToPayload) {
  Packet pkt = synack();
  pkt.payload = to_bytes("ab");
  FragmentAction frag(Proto::kTcp, 100, true);
  const auto out = run(frag, pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload.size() + out[1].payload.size(), 2u);
}

TEST(Action, FragmentOnEmptyPayloadPassesThrough) {
  FragmentAction frag(Proto::kTcp, 5, true);
  const auto out = run(frag, synack());
  ASSERT_EQ(out.size(), 1u);
}

TEST(Action, FragmentIpSetsFragmentFields) {
  Packet pkt = synack();
  pkt.payload = Bytes(32, 0xab);
  FragmentAction frag(Proto::kIp, 16, true);
  const auto out = run(frag, pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ip.flags & Ipv4Header::kFlagMoreFragments);
  EXPECT_EQ(out[1].ip.frag_offset, 2);  // 16 bytes / 8
}

TEST(Action, CloneIsDeepAndEquivalent) {
  DuplicateAction dup(
      std::make_unique<TamperAction>(tcp("ack"), TamperMode::kCorrupt, ""),
      std::make_unique<DropAction>());
  const ActionPtr copy = dup.clone();
  EXPECT_EQ(copy->to_string(), dup.to_string());
  EXPECT_EQ(copy->size(), dup.size());
  // Same seed => same corruption => identical output.
  const auto a = run(dup, synack(), 9);
  Rng rng(9);
  std::vector<Packet> b;
  copy->run(synack(), rng, b);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].tcp.ack, b[0].tcp.ack);
}

TEST(Action, SizeCountsNodes) {
  DuplicateAction dup(
      std::make_unique<TamperAction>(tcp("flags"), TamperMode::kReplace, "R"),
      nullptr);
  EXPECT_EQ(dup.size(), 2u);
  EXPECT_EQ(DuplicateAction().size(), 1u);  // null (send) slots add no node
}

TEST(Action, Strategy9ShapeEmitsThreeCopiesWithSamePayload) {
  // tamper{load:corrupt}(duplicate(duplicate,),)
  auto tree = std::make_unique<TamperAction>(
      tcp("load"), TamperMode::kCorrupt, "",
      std::make_unique<DuplicateAction>(
          std::make_unique<DuplicateAction>(nullptr, nullptr), nullptr));
  const auto out = run(*tree, synack());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].payload, out[1].payload);
  EXPECT_EQ(out[1].payload, out[2].payload);
  EXPECT_FALSE(out[0].payload.empty());
}

}  // namespace
}  // namespace caya
