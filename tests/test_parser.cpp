#include "geneva/parser.h"

#include <gtest/gtest.h>

#include "eval/strategies.h"
#include "packet/dns.h"

namespace caya {
namespace {

Packet synack() {
  Packet pkt = make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                               Ipv4Address::parse("10.0.0.2"), 40000,
                               tcpflag::kSyn | tcpflag::kAck, 50000, 10001);
  pkt.tcp.set_option(TcpOption::kWindowScale, {7});
  return pkt;
}

std::vector<Packet> apply_out(const Strategy& s, Packet pkt, Rng& rng) {
  std::vector<Packet> out;
  s.apply_outbound_into(std::move(pkt), rng, out);
  return out;
}

TEST(Parser, MinimalStrategy) {
  const Strategy s = parse_strategy("[TCP:flags:SA]-drop-| \\/");
  ASSERT_EQ(s.outbound.size(), 1u);
  EXPECT_TRUE(s.inbound.empty());
  EXPECT_EQ(s.outbound[0].trigger.field().name, "flags");
  EXPECT_EQ(s.outbound[0].trigger.value(), "SA");
}

TEST(Parser, EmptyActionMeansSend) {
  const Strategy s = parse_strategy("[TCP:flags:SA]--| \\/");
  ASSERT_EQ(s.outbound.size(), 1u);
  ASSERT_EQ(s.outbound[0].tree.size(), 1u);
  EXPECT_EQ(s.outbound[0].tree[0].kind, ActionKind::kSend);
}

TEST(Parser, InboundSide) {
  const Strategy s =
      parse_strategy("[TCP:flags:SA]-drop-| \\/ [TCP:flags:R]-drop-|");
  EXPECT_EQ(s.outbound.size(), 1u);
  EXPECT_EQ(s.inbound.size(), 1u);
  EXPECT_EQ(s.inbound[0].trigger.value(), "R");
}

TEST(Parser, BackslashVeeOptional) {
  const Strategy s = parse_strategy("[TCP:flags:SA]-drop-|");
  EXPECT_EQ(s.outbound.size(), 1u);
}

TEST(Parser, WhitespaceAndNewlinesTolerated) {
  const Strategy s = parse_strategy(
      "[TCP:flags:SA]-\n  duplicate(\n    tamper{TCP:flags:replace:R},\n"
      "    tamper{TCP:flags:replace:S})-| \\/");
  ASSERT_EQ(s.outbound.size(), 1u);
  EXPECT_EQ(action_size(s.outbound[0].tree), 3u);
}

TEST(Parser, TamperValueKeepsSpacesAndSlashes) {
  const Strategy s = parse_strategy(
      "[TCP:flags:SA]-tamper{TCP:load:replace:GET / HTTP1.}-| \\/");
  Rng rng(1);
  const auto out = apply_out(s, synack(), rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(to_string(out[0].payload), "GET / HTTP1.");
}

TEST(Parser, TamperValueMayContainColons) {
  const Strategy s = parse_strategy(
      "[TCP:flags:SA]-tamper{TCP:load:replace:a:b:c}-| \\/");
  Rng rng(1);
  const auto out = apply_out(s, synack(), rng);
  EXPECT_EQ(to_string(out[0].payload), "a:b:c");
}

TEST(Parser, RejectsUnknownAction) {
  EXPECT_THROW(parse_strategy("[TCP:flags:SA]-explode-| \\/"), ParseError);
}

TEST(Parser, RejectsUnknownField) {
  EXPECT_THROW(parse_strategy("[TCP:bogus:SA]-drop-| \\/"), ParseError);
  EXPECT_THROW(
      parse_strategy("[TCP:flags:SA]-tamper{TCP:bogus:corrupt}-| \\/"),
      ParseError);
}

TEST(Parser, RejectsUnknownTamperMode) {
  EXPECT_THROW(
      parse_strategy("[TCP:flags:SA]-tamper{TCP:flags:melt:S}-| \\/"),
      ParseError);
}

TEST(Parser, RejectsUnknownProtocol) {
  EXPECT_THROW(parse_strategy("[UDP:flags:SA]-drop-|"), ParseError);
  EXPECT_THROW(parse_strategy("[TCP:flags:SA]-tamper{UDP:flags:corrupt}-|"),
               ParseError);
}

TEST(Parser, RejectsReplaceValueTheFieldCannotHold) {
  // A replace value is parsed for its field when the strategy is built, so
  // a bad one is a ParseError at the tamper instead of a failure mid-run.
  try {
    (void)parse_strategy("[TCP:flags:SA]-tamper{TCP:seq:replace:abc}-|");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position(), 42u);  // just past the tamper's braces
    EXPECT_NE(std::string(e.what()).find("TCP:seq: abc"), std::string::npos);
  }
  // A number wider than its field is rejected at the same offset, instead of
  // being cut to the header member (300 used to write a TTL of 44).
  const std::string wide = "[TCP:flags:SA]-tamper{IP:ttl:replace:300}-|";
  try {
    (void)parse_strategy(wide);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position(), wide.find('}') + 1);
    EXPECT_NE(std::string(e.what()).find("IP:ttl: 300"), std::string::npos);
  }
  for (const char* bad :
       {"tamper{TCP:flags:replace:SX}", "tamper{IP:src:replace:10.0.0}",
        "tamper{TCP:options-mss:replace:1k}", "tamper{DNS:id:replace:-1}",
        "tamper{TCP:window:replace:70000}", "tamper{IP:ihl:replace:16}",
        "tamper{TCP:options-wscale:replace:256}",
        "tamper{TCP:options-mss:replace:65536}",
        "tamper{DNS:id:replace:65536}",
        "tamper{TCP:seq:replace:18446744073709551616}"}) {
    EXPECT_THROW((void)parse_action(bad), ParseError) << bad;
  }
  // The widest values that fit still parse; SACK-permitted holds no value
  // bytes, so any number only marks it present.
  for (const char* good :
       {"tamper{IP:ttl:replace:255}", "tamper{TCP:window:replace:65535}",
        "tamper{TCP:seq:replace:4294967295}",
        "tamper{TCP:options-timestamp:replace:18446744073709551615}",
        "tamper{TCP:options-sackok:replace:300}"}) {
    EXPECT_NO_THROW((void)parse_action(good)) << good;
  }
  // Corrupt takes no value, and a payload or DNS name takes any.
  EXPECT_NO_THROW((void)parse_action("tamper{TCP:seq:corrupt:abc}"));
  EXPECT_NO_THROW((void)parse_action("tamper{TCP:load:replace:abc}"));
  EXPECT_NO_THROW((void)parse_action("tamper{DNS:qname:replace:abc}"));
}

TEST(Parser, RejectsTriggerValueTheFieldCannotHold) {
  // A trigger value is parsed for its field, as a replace value is, so a
  // value the field cannot hold is a ParseError just past the trigger
  // instead of a rule that never fires.
  for (const std::string bad :
       {"[TCP:seq:abc]-drop-|", "[TCP:flags:PA0]-drop-|",
        "[IP:src:1.2.3]-drop-|", "[IP:ttl:300]-drop-|",
        "[TCP:window:70000]-drop-|", "[TCP:options-mss:65536]-drop-|"}) {
    try {
      (void)parse_strategy(bad);
      ADD_FAILURE() << "expected ParseError: " << bad;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.position(), bad.find(']') + 1) << bad;
    }
  }
}

TEST(Parser, TriggerFlagsMatchInAnyLetterOrder) {
  // "AS" is the flag mask SA: it fires on a SYN+ACK and prints as written.
  const Strategy s = parse_strategy("[TCP:flags:AS]-drop-|");
  EXPECT_EQ(s.to_string(), "[TCP:flags:AS]-drop-| \\/ ");
  Rng rng(1);
  EXPECT_TRUE(apply_out(s, synack(), rng).empty());
}

TEST(Parser, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_strategy("[TCP:flags:SA]-drop-| extra"), ParseError);
}

TEST(Parser, RejectsUnbalancedParens) {
  EXPECT_THROW(parse_strategy("[TCP:flags:SA]-duplicate(drop,-| \\/"),
               ParseError);
}

TEST(Parser, RejectsChildrenOnLeaves) {
  EXPECT_THROW(parse_strategy("[TCP:flags:SA]-drop(send,)-| \\/"),
               ParseError);
  EXPECT_THROW(parse_strategy("[TCP:flags:SA]-send(drop,)-| \\/"),
               ParseError);
}

TEST(Parser, SendLeavesAndEmptySlotsAreOneNode) {
  // "send" and an empty slot are the same behaviour and parse to the same
  // send node, so every DSL string maps to ONE tree shape. Without that, a
  // strategy round-tripped through a checkpoint (to_string -> parse) would
  // be structurally different from the original and the genetic operators
  // would diverge after a resume.
  EXPECT_EQ(parse_strategy("[TCP:flags:SA]-duplicate(send,drop)-| \\/")
                .to_string(),
            "[TCP:flags:SA]-duplicate(,drop)-| \\/ ");
  const Strategy bare = parse_strategy("[TCP:flags:SA]-send-| \\/");
  ASSERT_EQ(bare.outbound.size(), 1u);
  ASSERT_EQ(bare.outbound.front().tree.size(), 1u);
  EXPECT_EQ(bare.outbound.front().tree[0].kind, ActionKind::kSend);
  EXPECT_EQ(bare.to_string(), "[TCP:flags:SA]-send-| \\/ ");
}

TEST(Parser, RejectsTamperWithTwoChildren) {
  EXPECT_THROW(parse_strategy(
                   "[TCP:flags:SA]-tamper{TCP:flags:replace:R}(send,drop)-| "
                   "\\/"),
               ParseError);
}

TEST(Parser, FragmentSpecParsed) {
  const ActionTree a = parse_action("fragment{TCP:8:False}(drop,)");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].kind, ActionKind::kFragment);
  EXPECT_EQ(a[0].proto, Proto::kTcp);
  EXPECT_EQ(a[0].offset, 8u);
  EXPECT_FALSE(a[0].in_order);
}

TEST(Parser, FragmentRejectsBadSpec) {
  EXPECT_THROW((void)parse_action("fragment{TCP:x:True}"), ParseError);
  EXPECT_THROW((void)parse_action("fragment{TCP:8:maybe}"), ParseError);
  EXPECT_THROW((void)parse_action("fragment{TCP:8}"), ParseError);
}

TEST(Parser, FragmentAcceptsOnlyIpAndTcp) {
  // Only IP and TCP fragment; any other protocol, known to the field table
  // (DNS) or not (UDP), is a ParseError just past the fragment's braces.
  for (const std::string bad : {"[TCP:flags:SA]-fragment{UDP:8:True}-|",
                                "[TCP:flags:SA]-fragment{DNS:8:True}-|"}) {
    try {
      (void)parse_strategy(bad);
      ADD_FAILURE() << "expected ParseError: " << bad;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.position(), bad.find('}') + 1) << bad;
    }
  }
  EXPECT_EQ(parse_action("fragment{IP:8:True}")[0].proto, Proto::kIp);
}

TEST(Parser, ParseErrorCarriesPosition) {
  try {
    (void)parse_strategy("[TCP:flags:SA]-explode-|");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.position(), 10u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}


TEST(Parser, DnsTamperInDsl) {
  // The appendix's DNS extension end-to-end through the DSL: rewrite the
  // qname inside a DNS-over-TCP payload.
  const Strategy s = parse_strategy(
      "[TCP:dport:53]-tamper{DNS:qname:replace:benign.example}-| \\/");
  Packet pkt = make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 40000,
                               Ipv4Address::parse("8.8.8.8"), 53,
                               tcpflag::kPsh | tcpflag::kAck, 1, 1);
  lookup_field(Proto::kDns, "qname")
      .replace(pkt, {.text = "x"});  // no-op (payload empty)
  pkt.payload = build_dns_query({.id = 7, .qname = "www.wikipedia.org"});
  Rng rng(1);
  const auto out = apply_out(s, pkt, rng);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(parse_dns_qname(std::span(out[0].payload)), "benign.example");
}

// Round-trip property: every published strategy parses, prints, and
// re-parses to an identical tree.
class PublishedStrategyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PublishedStrategyRoundTrip, ParsePrintReparse) {
  const auto& published = published_strategy(GetParam());
  const Strategy first = parse_strategy(published.dsl);
  const std::string printed = first.to_string();
  const Strategy second = parse_strategy(printed);
  EXPECT_EQ(second.to_string(), printed);
  EXPECT_EQ(second.size(), first.size());
}

TEST_P(PublishedStrategyRoundTrip, AppliesDeterministically) {
  const Strategy s = parsed_strategy(GetParam());
  Rng rng_a(5);
  Rng rng_b(5);
  const auto out_a = apply_out(s, synack(), rng_a);
  const auto out_b = apply_out(s, synack(), rng_b);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].serialize(), out_b[i].serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(AllEleven, PublishedStrategyRoundTrip,
                         ::testing::Range(1, 12));

}  // namespace
}  // namespace caya
