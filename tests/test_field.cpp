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

// Tests look rows up by name, as the strategy parser does.
const Field& ip(std::string_view name) {
  return lookup_field(Proto::kIp, name);
}
const Field& tcp(std::string_view name) {
  return lookup_field(Proto::kTcp, name);
}
const Field& dns(std::string_view name) {
  return lookup_field(Proto::kDns, name);
}

void set(Packet& pkt, const Field& field, std::string value) {
  field.replace(pkt, field.parse(std::move(value)));
}

TEST(Field, ProtoStrings) {
  EXPECT_EQ(proto_from_string("TCP"), Proto::kTcp);
  EXPECT_EQ(proto_from_string("IP"), Proto::kIp);
  EXPECT_THROW((void)proto_from_string("UDP"), std::invalid_argument);
  EXPECT_EQ(to_string(Proto::kTcp), "TCP");
}

TEST(Field, GetTcpFields) {
  const Packet pkt = sample();
  EXPECT_EQ(tcp("flags").render(pkt), "SA");
  EXPECT_EQ(tcp("seq").render(pkt), "1000");
  EXPECT_EQ(tcp("ack").render(pkt), "2001");
  EXPECT_EQ(tcp("sport").render(pkt), "3822");
  EXPECT_EQ(tcp("window").render(pkt), "65535");
  EXPECT_EQ(tcp("options-wscale").render(pkt), "7");
}

TEST(Field, GetIpFields) {
  const Packet pkt = sample();
  EXPECT_EQ(ip("src").render(pkt), "10.0.0.1");
  EXPECT_EQ(ip("dst").render(pkt), "10.0.0.2");
  EXPECT_EQ(ip("ttl").render(pkt), "64");
}

TEST(Field, SetFlagsReplacesExactly) {
  Packet pkt = sample();
  set(pkt, tcp("flags"), "R");
  EXPECT_EQ(pkt.tcp.flags, tcpflag::kRst);
  set(pkt, tcp("flags"), "");
  EXPECT_EQ(pkt.tcp.flags, 0);
}

TEST(Field, SetWindowAndRemoveWscale) {
  // The exact edits Strategy 8 performs.
  Packet pkt = sample();
  set(pkt, tcp("window"), "10");
  set(pkt, tcp("options-wscale"), "");
  EXPECT_EQ(pkt.tcp.window, 10);
  EXPECT_EQ(pkt.tcp.window_scale(), std::nullopt);
}

TEST(Field, SetLoadReplacesPayload) {
  Packet pkt = sample();
  set(pkt, tcp("load"), "GET / HTTP1.");
  EXPECT_EQ(to_string(pkt.payload), "GET / HTTP1.");
}

TEST(Field, SetChecksumPinsIt) {
  Packet pkt = sample();
  set(pkt, tcp("chksum"), "4660");
  EXPECT_TRUE(pkt.tcp_checksum_overridden);
  EXPECT_EQ(pkt.tcp.checksum, 0x1234);
  EXPECT_FALSE(pkt.tcp_checksum_valid());
}

TEST(Field, UnknownFieldThrows) {
  EXPECT_THROW((void)lookup_field(Proto::kTcp, "bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)lookup_field(Proto::kIp, "options-mss"),
               std::invalid_argument);
}

TEST(Field, BadNumericValueThrows) {
  EXPECT_THROW((void)tcp("seq").parse("abc"), std::invalid_argument);
  EXPECT_THROW((void)tcp("window").parse("-1"), std::invalid_argument);
  EXPECT_THROW((void)tcp("options-mss").parse("1k"),
               std::invalid_argument);
  EXPECT_THROW((void)tcp("flags").parse("SX"), std::invalid_argument);
  EXPECT_THROW((void)ip("src").parse("10.0.0"), std::invalid_argument);
  // Text forms take any value; an empty option value means "remove".
  EXPECT_NO_THROW((void)tcp("load").parse("abc"));
  EXPECT_NO_THROW((void)dns("qname").parse("abc"));
  EXPECT_NO_THROW((void)tcp("options-wscale").parse(""));
}

TEST(Field, CorruptAckChangesValueDeterministically) {
  Packet a = sample();
  Packet b = sample();
  Rng rng_a(7);
  Rng rng_b(7);
  tcp("ack").corrupt(a, rng_a);
  tcp("ack").corrupt(b, rng_b);
  EXPECT_EQ(a.tcp.ack, b.tcp.ack);  // deterministic under same seed
}

TEST(Field, CorruptLoadOnEmptyPayloadCreatesOne) {
  Packet pkt = sample();
  Rng rng(11);
  tcp("load").corrupt(pkt, rng);
  EXPECT_FALSE(pkt.payload.empty());
}

TEST(Field, CorruptLoadPreservesNonEmptyLength) {
  Packet pkt = sample();
  pkt.payload = to_bytes("12345678");
  Rng rng(11);
  tcp("load").corrupt(pkt, rng);
  EXPECT_EQ(pkt.payload.size(), 8u);
}

TEST(Field, FieldNamesAreAllReadable) {
  const Packet pkt = sample();
  EXPECT_EQ(fields(Proto::kIp).size(), 13u);
  EXPECT_EQ(fields(Proto::kTcp).size(), 14u);
  EXPECT_EQ(fields(Proto::kDns).size(), 2u);
  for (const Proto proto : {Proto::kIp, Proto::kTcp, Proto::kDns}) {
    for (const Field& field : fields(proto)) {
      EXPECT_EQ(field.proto, proto);
      EXPECT_EQ(&lookup_field(proto, field.name), &field);
      EXPECT_NO_THROW((void)field.render(pkt)) << field.name;
    }
  }
}

TEST(Field, EveryFieldCanBeCorrupted) {
  Rng rng(3);
  for (const Proto proto : {Proto::kIp, Proto::kTcp, Proto::kDns}) {
    for (const Field& field : fields(proto)) {
      Packet pkt = sample();
      EXPECT_NO_THROW(field.corrupt(pkt, rng)) << field.name;
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
  EXPECT_EQ(dns("id").render(pkt), "4660");
  EXPECT_EQ(dns("qname").render(pkt), "www.wikipedia.org");
}

TEST(DnsFields, ReplaceQnameRebuildsQuery) {
  Packet pkt = dns_packet();
  set(pkt, dns("qname"), "benign.example");
  EXPECT_EQ(dns("qname").render(pkt), "benign.example");
  EXPECT_EQ(dns("id").render(pkt), "4660");  // id preserved
  EXPECT_EQ(parse_dns_qname(std::span(pkt.payload)), "benign.example");
}

TEST(DnsFields, ReplaceId) {
  Packet pkt = dns_packet();
  set(pkt, dns("id"), "255");
  EXPECT_EQ(dns("id").render(pkt), "255");
  EXPECT_EQ(dns("qname").render(pkt), "www.wikipedia.org");
}

TEST(DnsFields, NonDnsPayloadIsLeftAlone) {
  Packet pkt = dns_packet();
  pkt.payload = to_bytes("GET / HTTP/1.1\r\n\r\n");
  const Bytes before = pkt.payload.bytes();
  set(pkt, dns("qname"), "x.example");
  EXPECT_EQ(pkt.payload, before);
  EXPECT_EQ(dns("qname").render(pkt), "");
}

TEST(DnsFields, CorruptQnameChangesIt) {
  Packet pkt = dns_packet();
  Rng rng(1);
  dns("qname").corrupt(pkt, rng);
  EXPECT_NE(dns("qname").render(pkt), "www.wikipedia.org");
  EXPECT_FALSE(dns("qname").render(pkt).empty());
}

TEST(DnsFields, ProtoStringsRoundTrip) {
  EXPECT_EQ(proto_from_string("DNS"), Proto::kDns);
  EXPECT_EQ(to_string(Proto::kDns), "DNS");
  EXPECT_EQ(dns("qname").name, "qname");
  EXPECT_THROW((void)dns("flags"), std::invalid_argument);
}

TEST(DnsFields, TamperDslRoundTrip) {
  // The appendix extension end-to-end: a DNS tamper in the DSL.
  const Packet pkt = dns_packet();
  Rng rng(1);
  // Built inline to avoid a geneva dependency in this packet-level test:
  // tamper is exercised via Field::parse + replace, which is what a parsed
  // tamper node does.
  Packet copy = pkt;
  set(copy, dns("qname"), "replaced.example");
  EXPECT_EQ(dns("qname").render(copy), "replaced.example");
}

}  // namespace
}  // namespace caya
