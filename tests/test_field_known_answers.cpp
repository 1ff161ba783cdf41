// Known answers for every Geneva field: what it renders to on a fixed
// packet, and the packet that replace and corrupt (under a fixed seed)
// leave behind. The values were computed once and pinned here, so any change
// to how a field is read, written or drawn shows up as a failing row.
//
// The test drives fields only through the DSL, never through the field
// API, so it holds unedited across changes to that API: a trigger on
// `[proto:field:value]` fires exactly when the field renders as `value`,
// and a tamper's output is digested from its wire bytes plus the TCP
// checksum a fresh serialization would carry.
#include <gtest/gtest.h>

#include <string>

#include "geneva/parser.h"
#include "packet/dns.h"
#include "util/snapshot.h"

namespace caya {
namespace {

constexpr std::uint64_t kCorruptSeed = 2020;

// Every header field holds a distinct non-default value, all four TCP
// options are present, and the payload is printable text.
Packet tcp_packet() {
  Packet pkt = make_tcp_packet(
      Ipv4Address::parse("93.184.216.34"), 80, Ipv4Address::parse("10.0.0.2"),
      40000, tcpflag::kPsh | tcpflag::kAck, 50000, 10001,
      to_bytes("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"));
  pkt.ip.tos = 16;
  pkt.ip.id = 7238;
  pkt.ip.flags = 2;
  pkt.ip.frag_offset = 5;
  pkt.ip.ttl = 57;
  pkt.ip.total_length = 1234;
  pkt.ip.checksum = 4321;
  pkt.tcp.window = 29200;
  pkt.tcp.urgent_pointer = 3;
  pkt.tcp.checksum = 999;
  pkt.tcp.set_option(TcpOption::kMss, {0x05, 0xb4});
  pkt.tcp.set_option(TcpOption::kSackPermitted, {});
  pkt.tcp.set_option(TcpOption::kTimestamps, {0, 0, 1, 2, 0, 0, 3, 4});
  pkt.tcp.set_option(TcpOption::kWindowScale, {7});
  return pkt;
}

Packet dns_packet() {
  return make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 40000,
                         Ipv4Address::parse("8.8.8.8"), 53,
                         tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                         build_dns_query({.id = 0x1234,
                                          .qname = "www.wikipedia.org"}));
}

Packet packet_for(std::string_view field) {
  return field.starts_with("DNS:") ? dns_packet() : tcp_packet();
}

// FNV-1a over the wire bytes followed by the computed TCP checksum.
std::uint64_t digest(const Packet& pkt) {
  std::string bytes = to_string(pkt.serialize());
  const std::uint16_t sum = pkt.computed_tcp_checksum();
  bytes.push_back(static_cast<char>(sum >> 8));
  bytes.push_back(static_cast<char>(sum & 0xff));
  return fnv1a64(bytes);
}

Packet tamper(std::string_view field, const std::string& mode) {
  const ActionTree action =
      parse_action("tamper{" + std::string(field) + ":" + mode + "}");
  Rng rng(kCorruptSeed);
  std::vector<Packet> out;
  run_action(action, packet_for(field), rng, out);
  EXPECT_EQ(out.size(), 1u) << field;
  return out.empty() ? Packet{} : out.front();
}

bool trigger_fires(std::string_view field, const std::string& value) {
  const Strategy strategy =
      parse_strategy("[" + std::string(field) + ":" + value + "]-drop-|");
  Rng rng(1);
  std::vector<Packet> out;
  strategy.apply_outbound_into(packet_for(field), rng, out);
  return out.empty();
}

struct KnownAnswer {
  std::string_view field;     // as the DSL names it
  std::string rendered;       // the field's value on the fixed packet
  std::string replacement;    // a replace value
  std::uint64_t replaced;     // digest after replace
  std::uint64_t corrupted;    // digest after corrupt with kCorruptSeed
};

const std::string kHttpLoad = "GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";

// Out-of-range numbers are kept deliberately (ttl 300, window 70000): a
// replace value is cut to the field's width, as the wire field would be.
const std::vector<KnownAnswer>& known_answers() {
  static const std::vector<KnownAnswer> rows = {
      {"IP:version", "4", "6",
       0x54145c237b7a82d5, 0xfdf0116b020323f5},
      {"IP:ihl", "5", "6",
       0xdb8700ebf1620867, 0xd47192207e344097},
      {"IP:tos", "16", "184",
       0x3ce639f280212f62, 0x772713e3afa4143d},
      {"IP:len", "1234", "40",
       0x90c65f9e8102ec17, 0x2e01d75c4815d193},
      {"IP:id", "7238", "1",
       0x1179cee3507a0450, 0x071f51f5872438e1},
      {"IP:flags", "2", "1",
       0x4778ce1f464fdc4e, 0xd8a4d997224b4515},
      {"IP:frag", "5", "100",
       0xa1ec613dae0d1127, 0x11227cd2f20d5477},
      {"IP:ttl", "57", "300",
       0xd9ea154015bebe23, 0x254b018325383331},
      {"IP:proto", "6", "17",
       0x2cafe595e43bddd9, 0x1db5f7b140abf559},
      {"IP:chksum", "4321", "4660",
       0x88e4f10bed8dc9df, 0x8da1e52a590e0f74},
      {"IP:src", "93.184.216.34", "203.0.113.9",
       0xd7fbf99f3fa2a97c, 0x75ddfa705ec579b4},
      {"IP:dst", "10.0.0.2", "198.51.100.7",
       0x807948ec4985c46c, 0x3cef3b9c7c788016},
      {"IP:load", kHttpLoad, "GET / HTTP1.",
       0x3317b86505e8290d, 0xd39260e3986a102b},
      {"TCP:sport", "80", "8080",
       0xf6abd0f974c6741c, 0x357ea3bbbe23afe6},
      {"TCP:dport", "40000", "443",
       0xfad40c657f92e7f1, 0xb9010f0a3367aa14},
      {"TCP:seq", "50000", "4294967295",
       0x431e141de93ff034, 0x1804c62923378eb1},
      {"TCP:ack", "10001", "123456789",
       0xdacf993632605f57, 0xd80dfed68a789f14},
      {"TCP:dataofs", "5", "8",
       0x43122fb4379b3bf5, 0xcab36d817aa01bf7},
      {"TCP:flags", "PA", "FRA",
       0x75982d85f4e46642, 0x87b91592c792ed80},
      {"TCP:window", "29200", "70000",
       0x727184e810c6caa2, 0x55f5be7fedb7d45a},
      {"TCP:chksum", "999", "4660",
       0xfe2ddf23513a3b26, 0x1542721d1b5fced1},
      {"TCP:urgptr", "3", "65535",
       0xacf26910f7bdffa2, 0x3493f74861db0fff},
      {"TCP:load", kHttpLoad, "AAAA",
       0x148cf9c0c5767085, 0xd39260e3986a102b},
      {"TCP:options-wscale", "7", "",
       0xc891fd0dbf970c8f, 0x1f33ca45783a56d9},
      {"TCP:options-mss", "1460", "536",
       0xe82ed7a7a5b74a9a, 0x0c00e7fcb649aeba},
      // SACK-permitted carries no value bytes: both leave it as it was.
      {"TCP:options-sackok", "0", "1",
       0x7ca215d087957555, 0x7ca215d087957555},
      {"TCP:options-timestamp", "1108101563140", "77",
       0xf8be1067b33e5534, 0x0f0993aec395a357},
      {"DNS:id", "4660", "255",
       0x5c738ec0bb275f67, 0x1bc12fcd9904afef},
      {"DNS:qname", "www.wikipedia.org", "benign.example",
       0x6e56be6fc94ddb5c, 0x3817c5317b04c478},
  };
  return rows;
}

TEST(Field, KnownAnswersCoverEveryField) {
  EXPECT_EQ(known_answers().size(), 29u);
}

TEST(Field, KnownAnswersRender) {
  for (const KnownAnswer& row : known_answers()) {
    EXPECT_TRUE(trigger_fires(row.field, row.rendered))
        << row.field << " should render as \"" << row.rendered << '"';
    EXPECT_FALSE(trigger_fires(row.field, row.replacement)) << row.field;
  }
}

TEST(Field, KnownAnswersReplace) {
  for (const KnownAnswer& row : known_answers()) {
    const Packet pkt = tamper(row.field, "replace:" + row.replacement);
    EXPECT_EQ(digest(pkt), row.replaced) << row.field;
  }
}

TEST(Field, KnownAnswersCorrupt) {
  for (const KnownAnswer& row : known_answers()) {
    const Packet pkt = tamper(row.field, "corrupt");
    EXPECT_EQ(digest(pkt), row.corrupted) << row.field;
  }
}

}  // namespace
}  // namespace caya
