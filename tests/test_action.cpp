#include "geneva/action.h"

#include <gtest/gtest.h>

#include "geneva/parser.h"

namespace caya {
namespace {

Packet synack() {
  Packet pkt = make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                               Ipv4Address::parse("10.0.0.2"), 40000,
                               tcpflag::kSyn | tcpflag::kAck, 50000, 10001);
  pkt.tcp.set_option(TcpOption::kWindowScale, {7});
  return pkt;
}

std::vector<Packet> run(std::string_view action, Packet pkt,
                        std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<Packet> out;
  run_action(parse_action(action), std::move(pkt), rng, out);
  return out;
}

TEST(Action, SendEmitsPacketUnchanged) {
  const auto out = run("send", synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kSyn | tcpflag::kAck);
}

TEST(Action, DropEmitsNothing) {
  EXPECT_TRUE(run("drop", synack()).empty());
}

TEST(Action, NullChildrenDefaultToSend) {
  // Missing children are send nodes.
  EXPECT_EQ(parse_action("duplicate").size(), 3u);
  const auto out = run("duplicate", synack());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.seq, out[1].tcp.seq);
}

TEST(Action, DuplicateOrderFirstThenSecond) {
  const auto out = run(
      "duplicate(tamper{TCP:flags:replace:R},tamper{TCP:flags:replace:S})",
      synack());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tcp.flags, tcpflag::kRst);
  EXPECT_EQ(out[1].tcp.flags, tcpflag::kSyn);
}

TEST(Action, TamperReplaceRecomputesChecksum) {
  const auto out = run("tamper{TCP:flags:replace:S}", synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].tcp_checksum_valid());
}

TEST(Action, TamperOnChecksumPinsIt) {
  const auto out = run("tamper{TCP:chksum:replace:1234}", synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].tcp_checksum_overridden);
  EXPECT_FALSE(out[0].tcp_checksum_valid());
}

TEST(Action, TamperCorruptLoadAddsPayload) {
  const auto out = run("tamper{TCP:load:corrupt}", synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].payload.empty());
}

TEST(Action, TamperChainsThroughChild) {
  const auto out = run(
      "tamper{TCP:options-wscale:replace:}(tamper{TCP:window:replace:10},)",
      synack());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tcp.window, 10);
  EXPECT_EQ(out[0].tcp.window_scale(), std::nullopt);
}

TEST(Action, FragmentTcpSplitsPayloadAndAdjustsSeq) {
  Packet pkt = synack();
  pkt.tcp.flags = tcpflag::kPsh | tcpflag::kAck;
  pkt.payload = to_bytes("HELLOWORLD");
  const auto out = run("fragment{TCP:5:True}", pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(to_string(out[0].payload), "HELLO");
  EXPECT_EQ(to_string(out[1].payload), "WORLD");
  EXPECT_EQ(out[1].tcp.seq, out[0].tcp.seq + 5);
}

TEST(Action, FragmentOutOfOrderSwapsDelivery) {
  Packet pkt = synack();
  pkt.payload = to_bytes("HELLOWORLD");
  const auto out = run("fragment{TCP:5:False}", pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(to_string(out[0].payload), "WORLD");
  EXPECT_EQ(to_string(out[1].payload), "HELLO");
}

TEST(Action, FragmentOffsetClampedToPayload) {
  Packet pkt = synack();
  pkt.payload = to_bytes("ab");
  const auto out = run("fragment{TCP:100:True}", pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload.size() + out[1].payload.size(), 2u);
}

TEST(Action, FragmentOnEmptyPayloadPassesThrough) {
  const auto out = run("fragment{TCP:5:True}", synack());
  ASSERT_EQ(out.size(), 1u);
}

TEST(Action, FragmentIpSetsFragmentFields) {
  Packet pkt = synack();
  pkt.payload = Bytes(32, 0xab);
  const auto out = run("fragment{IP:16:True}", pkt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ip.flags & Ipv4Header::kFlagMoreFragments);
  EXPECT_EQ(out[1].ip.frag_offset, 2);  // 16 bytes / 8
}

TEST(Action, CopiedStrategyIsIndependent) {
  const Strategy original = parse_strategy(
      "[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},drop)-|");
  Strategy copy = original;
  EXPECT_EQ(copy.to_string(), original.to_string());
  // Same seed => same corruption => identical output.
  Rng rng_a(9);
  Rng rng_b(9);
  std::vector<Packet> a;
  std::vector<Packet> b;
  original.apply_outbound_into(synack(), rng_a, a);
  copy.apply_outbound_into(synack(), rng_b, b);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].tcp.ack, b[0].tcp.ack);
  // Editing the copy's tree leaves the original as it was.
  ActionTree& tree = copy.outbound[0].tree;
  tree[1] = tamper_node(lookup_field(Proto::kTcp, "flags"),
                        TamperMode::kReplace, "R");
  tree[3] = {};  // drop becomes send
  EXPECT_EQ(copy.to_string(),
            "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},)-| \\/ ");
  EXPECT_EQ(original.to_string(),
            "[TCP:flags:SA]-duplicate(tamper{TCP:ack:corrupt},drop)-| \\/ ");
}

TEST(Action, SizeCountsNodes) {
  EXPECT_EQ(
      action_size(parse_action("duplicate(tamper{TCP:flags:replace:R},)")),
      2u);
  // Send nodes add nothing.
  EXPECT_EQ(action_size(parse_action("duplicate")), 1u);
  EXPECT_EQ(action_size(parse_action("send")), 0u);
}

TEST(Action, Strategy9ShapeEmitsThreeCopiesWithSamePayload) {
  // tamper{load:corrupt}(duplicate(duplicate,),)
  const auto out =
      run("tamper{TCP:load:corrupt}(duplicate(duplicate,),)", synack());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].payload, out[1].payload);
  EXPECT_EQ(out[1].payload, out[2].payload);
  EXPECT_FALSE(out[0].payload.empty());
}

}  // namespace
}  // namespace caya
