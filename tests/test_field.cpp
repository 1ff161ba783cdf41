#include "packet/field.h"

#include <gtest/gtest.h>

#include "packet/dns.h"

namespace caya {
namespace {

Packet sample() {
  Packet pkt = make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 3822,
                               Ipv4Address::parse("10.0.0.2"), 80,
                               tcpflag::kSyn | tcpflag::kAck, 1000, 2001);
  pkt.tcp.window = 65535;
  pkt.tcp.set_option(TcpOption::kWindowScale, {7});
  return pkt;
}

TEST(Field, ProtoStrings) {
  EXPECT_EQ(proto_from_string("TCP"), Proto::kTcp);
  EXPECT_EQ(proto_from_string("IP"), Proto::kIp);
  EXPECT_THROW((void)proto_from_string("UDP"), std::invalid_argument);
  EXPECT_EQ(to_string(Proto::kTcp), "TCP");
}

TEST(Field, GetTcpFields) {
  const Packet pkt = sample();
  EXPECT_EQ(get_field(pkt, Proto::kTcp, "flags"), "SA");
  EXPECT_EQ(get_field(pkt, Proto::kTcp, "seq"), "1000");
  EXPECT_EQ(get_field(pkt, Proto::kTcp, "ack"), "2001");
  EXPECT_EQ(get_field(pkt, Proto::kTcp, "sport"), "3822");
  EXPECT_EQ(get_field(pkt, Proto::kTcp, "window"), "65535");
  EXPECT_EQ(get_field(pkt, Proto::kTcp, "options-wscale"), "7");
}

TEST(Field, GetIpFields) {
  const Packet pkt = sample();
  EXPECT_EQ(get_field(pkt, Proto::kIp, "src"), "10.0.0.1");
  EXPECT_EQ(get_field(pkt, Proto::kIp, "dst"), "10.0.0.2");
  EXPECT_EQ(get_field(pkt, Proto::kIp, "ttl"), "64");
}

TEST(Field, SetFlagsReplacesExactly) {
  Packet pkt = sample();
  set_field(pkt, Proto::kTcp, "flags", "R");
  EXPECT_EQ(pkt.tcp.flags, tcpflag::kRst);
  set_field(pkt, Proto::kTcp, "flags", "");
  EXPECT_EQ(pkt.tcp.flags, 0);
}

TEST(Field, SetWindowAndRemoveWscale) {
  // The exact edits Strategy 8 performs.
  Packet pkt = sample();
  set_field(pkt, Proto::kTcp, "window", "10");
  set_field(pkt, Proto::kTcp, "options-wscale", "");
  EXPECT_EQ(pkt.tcp.window, 10);
  EXPECT_EQ(pkt.tcp.window_scale(), std::nullopt);
}

TEST(Field, SetLoadReplacesPayload) {
  Packet pkt = sample();
  set_field(pkt, Proto::kTcp, "load", "GET / HTTP1.");
  EXPECT_EQ(to_string(pkt.payload), "GET / HTTP1.");
}

TEST(Field, SetChecksumPinsIt) {
  Packet pkt = sample();
  set_field(pkt, Proto::kTcp, "chksum", "4660");
  EXPECT_TRUE(pkt.tcp_checksum_overridden);
  EXPECT_EQ(pkt.tcp.checksum, 0x1234);
  EXPECT_FALSE(pkt.tcp_checksum_valid());
}

TEST(Field, UnknownFieldThrows) {
  Packet pkt = sample();
  EXPECT_THROW((void)get_field(pkt, Proto::kTcp, "bogus"),
               std::invalid_argument);
  EXPECT_THROW(set_field(pkt, Proto::kTcp, "bogus", "1"),
               std::invalid_argument);
}

TEST(Field, BadNumericValueThrows) {
  Packet pkt = sample();
  EXPECT_THROW(set_field(pkt, Proto::kTcp, "seq", "abc"),
               std::invalid_argument);
}

TEST(Field, CorruptAckChangesValueDeterministically) {
  Packet a = sample();
  Packet b = sample();
  Rng rng_a(7);
  Rng rng_b(7);
  corrupt_field(a, Proto::kTcp, "ack", rng_a);
  corrupt_field(b, Proto::kTcp, "ack", rng_b);
  EXPECT_EQ(a.tcp.ack, b.tcp.ack);  // deterministic under same seed
}

TEST(Field, CorruptLoadOnEmptyPayloadCreatesOne) {
  Packet pkt = sample();
  Rng rng(11);
  corrupt_field(pkt, Proto::kTcp, "load", rng);
  EXPECT_FALSE(pkt.payload.empty());
}

TEST(Field, CorruptLoadPreservesNonEmptyLength) {
  Packet pkt = sample();
  pkt.payload = to_bytes("12345678");
  Rng rng(11);
  corrupt_field(pkt, Proto::kTcp, "load", rng);
  EXPECT_EQ(pkt.payload.size(), 8u);
}

TEST(Field, FieldNamesAreAllReadable) {
  const Packet pkt = sample();
  for (const Proto proto : {Proto::kIp, Proto::kTcp}) {
    for (const auto& name : field_names(proto)) {
      EXPECT_TRUE(field_exists(proto, name));
      EXPECT_NO_THROW((void)get_field(pkt, proto, name)) << name;
    }
  }
}

TEST(Field, EveryFieldCanBeCorrupted) {
  Rng rng(3);
  for (const Proto proto : {Proto::kIp, Proto::kTcp}) {
    for (const auto& name : field_names(proto)) {
      Packet pkt = sample();
      EXPECT_NO_THROW(corrupt_field(pkt, proto, name, rng)) << name;
    }
  }
}

// ---------------- DNS tamper fields ----------------

Packet dns_packet() {
  return make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 40000,
                         Ipv4Address::parse("8.8.8.8"), 53,
                         tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                         build_dns_query({.id = 0x1234,
                                          .qname = "www.wikipedia.org"}));
}

TEST(DnsFields, ReadIdAndQname) {
  const Packet pkt = dns_packet();
  EXPECT_EQ(get_field(pkt, Proto::kDns, "id"), "4660");
  EXPECT_EQ(get_field(pkt, Proto::kDns, "qname"), "www.wikipedia.org");
}

TEST(DnsFields, ReplaceQnameRebuildsQuery) {
  Packet pkt = dns_packet();
  set_field(pkt, Proto::kDns, "qname", "benign.example");
  EXPECT_EQ(get_field(pkt, Proto::kDns, "qname"), "benign.example");
  EXPECT_EQ(get_field(pkt, Proto::kDns, "id"), "4660");  // id preserved
  EXPECT_EQ(parse_dns_qname(std::span(pkt.payload)), "benign.example");
}

TEST(DnsFields, ReplaceId) {
  Packet pkt = dns_packet();
  set_field(pkt, Proto::kDns, "id", "255");
  EXPECT_EQ(get_field(pkt, Proto::kDns, "id"), "255");
  EXPECT_EQ(get_field(pkt, Proto::kDns, "qname"), "www.wikipedia.org");
}

TEST(DnsFields, NonDnsPayloadIsLeftAlone) {
  Packet pkt = dns_packet();
  pkt.payload = to_bytes("GET / HTTP/1.1\r\n\r\n");
  const Bytes before = pkt.payload.bytes();
  set_field(pkt, Proto::kDns, "qname", "x.example");
  EXPECT_EQ(pkt.payload, before);
  EXPECT_EQ(get_field(pkt, Proto::kDns, "qname"), "");
}

TEST(DnsFields, CorruptQnameChangesIt) {
  Packet pkt = dns_packet();
  Rng rng(1);
  corrupt_field(pkt, Proto::kDns, "qname", rng);
  EXPECT_NE(get_field(pkt, Proto::kDns, "qname"), "www.wikipedia.org");
  EXPECT_FALSE(get_field(pkt, Proto::kDns, "qname").empty());
}

TEST(DnsFields, ProtoStringsRoundTrip) {
  EXPECT_EQ(proto_from_string("DNS"), Proto::kDns);
  EXPECT_EQ(to_string(Proto::kDns), "DNS");
  EXPECT_TRUE(field_exists(Proto::kDns, "qname"));
  EXPECT_FALSE(field_exists(Proto::kDns, "flags"));
}

TEST(DnsFields, TamperDslRoundTrip) {
  // The appendix extension end-to-end: a DNS tamper in the DSL.
  const Packet pkt = dns_packet();
  Rng rng(1);
  // Built inline to avoid a geneva dependency in this packet-level test:
  // tamper is exercised via set_field, which is what TamperAction calls.
  Packet copy = pkt;
  set_field(copy, Proto::kDns, "qname", "replaced.example");
  EXPECT_EQ(get_field(copy, Proto::kDns, "qname"), "replaced.example");
}

}  // namespace
}  // namespace caya
