// Golden malformed-input corpus + try_parse/legacy-parse equivalence.
//
// tests/corpus/malformed/manifest.txt pins ~30 minimal wire fragments to the
// exact DecodeError the taxonomy assigns them: every validation branch in the
// decode layer has a named witness. The randomized tests then assert the two
// calling conventions can never disagree — legacy parse() throws exactly when
// try_parse() reports an error, on arbitrary garbage.
#include "packet/decode.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/pcap.h"
#include "packet/dns.h"
#include "packet/ipv4.h"
#include "packet/packet.h"
#include "packet/tcp.h"
#include "packet/tcp_flags.h"
#include "util/rng.h"

namespace caya {
namespace {

struct CorpusEntry {
  std::string name;
  std::string codec;
  DecodeError expected = DecodeError::kNone;
  Bytes data;
};

Bytes from_hex(const std::string& hex) {
  Bytes out;
  if (hex == "-") return out;  // empty-input sentinel
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::vector<CorpusEntry> load_manifest() {
  const std::string path =
      std::string(CAYA_MALFORMED_DIR) + "/manifest.txt";
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing corpus manifest: " << path;
  std::vector<CorpusEntry> out;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    CorpusEntry entry;
    std::string label, hex;
    fields >> entry.name >> entry.codec >> label >> hex;
    entry.expected = parse_decode_error(label);
    EXPECT_NE(entry.expected, DecodeError::kNone)
        << entry.name << ": unknown label " << label;
    entry.data = from_hex(hex);
    out.push_back(std::move(entry));
  }
  return out;
}

DecodeError decode_with(const std::string& codec,
                        std::span<const std::uint8_t> data) {
  if (codec == "ipv4") return Ipv4Header::try_parse(data).error;
  if (codec == "tcp") return TcpHeader::try_parse(data).error;
  if (codec == "dns-qname") return try_parse_dns_qname(data).error;
  if (codec == "dns-response") return try_parse_dns_response(data).error;
  if (codec == "packet") return Packet::try_parse(data).error;
  if (codec == "pcap") return try_from_pcap(data).error;
  ADD_FAILURE() << "unknown codec: " << codec;
  return DecodeError::kNone;
}

TEST(DecodeErrors, GoldenCorpusLabels) {
  const std::vector<CorpusEntry> corpus = load_manifest();
  ASSERT_GE(corpus.size(), 30u);
  for (const CorpusEntry& entry : corpus) {
    const DecodeError got = decode_with(entry.codec, entry.data);
    EXPECT_EQ(to_string(got), to_string(entry.expected))
        << entry.name << " (" << entry.codec << ")";
  }
}

TEST(DecodeErrors, LabelRoundTrip) {
  for (std::size_t i = 0; i < kDecodeErrorCount; ++i) {
    const auto error = static_cast<DecodeError>(i);
    EXPECT_EQ(parse_decode_error(to_string(error)), error);
  }
  EXPECT_EQ(parse_decode_error("no-such-label"), DecodeError::kNone);
}

// The legacy throwing parsers are wrappers over try_parse; on arbitrary
// garbage the two conventions must agree exactly: throw <=> !ok().
TEST(DecodeErrors, RandomizedEquivalenceWithLegacyParse) {
  Rng rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    const Bytes wire = rng.bytes(rng.index(80));

    auto check = [&](auto try_result, auto legacy) {
      bool threw = false;
      try {
        legacy();
      } catch (const std::exception&) {
        threw = true;
      }
      EXPECT_EQ(threw, !try_result.ok()) << "iteration " << i;
    };

    std::size_t consumed = 0;
    check(Ipv4Header::try_parse(wire),
          [&] { (void)Ipv4Header::parse(wire, consumed); });
    check(TcpHeader::try_parse(wire),
          [&] { (void)TcpHeader::parse(wire, consumed); });
    check(Packet::try_parse(wire), [&] { (void)Packet::parse(wire); });

    // The DNS legacy parsers signal failure via nullopt, not throwing.
    EXPECT_EQ(parse_dns_qname(wire).has_value(),
              try_parse_dns_qname(wire).ok());
    EXPECT_EQ(parse_dns_response(wire).has_value(),
              try_parse_dns_response(wire).ok());
  }
}

// Regression: compression-pointer loops must exhaust the jump budget, not
// the stack or the CPU. A legitimate single pointer still decodes.
TEST(DecodeErrors, DnsPointerJumpBudget) {
  // Chain of kDnsPointerJumpBudget+2 pointers, each hopping to the next.
  Bytes msg(12, 0);
  msg[5] = 1;  // qdcount
  const std::size_t chain = kDnsPointerJumpBudget + 2;
  const std::size_t base = 12;
  for (std::size_t i = 0; i < chain; ++i) {
    const std::size_t target =
        i + 1 < chain ? base + 2 * (i + 1) : base;  // last loops back
    msg.push_back(static_cast<std::uint8_t>(0xc0 | (target >> 8)));
    msg.push_back(static_cast<std::uint8_t>(target & 0xff));
  }
  Bytes stream;
  stream.push_back(static_cast<std::uint8_t>(msg.size() >> 8));
  stream.push_back(static_cast<std::uint8_t>(msg.size() & 0xff));
  stream.insert(stream.end(), msg.begin(), msg.end());
  EXPECT_EQ(try_parse_dns_qname(stream).error, DecodeError::kPointerLoop);

  // One legitimate pointer: name at 12 = "abc" + terminator, question name
  // at 17 points back to it.
  Bytes ok(12, 0);
  ok[5] = 1;
  ok.push_back(3);
  ok.push_back('a');
  ok.push_back('b');
  ok.push_back('c');
  ok.push_back(0);
  ok.push_back(0xc0);
  ok.push_back(12);
  ok.push_back(0);  // qtype/qclass
  ok.push_back(1);
  ok.push_back(0);
  ok.push_back(1);
  Bytes ok_stream;
  ok_stream.push_back(static_cast<std::uint8_t>(ok.size() >> 8));
  ok_stream.push_back(static_cast<std::uint8_t>(ok.size() & 0xff));
  ok_stream.insert(ok_stream.end(), ok.begin(), ok.end());
  const auto parsed = try_parse_dns_qname(ok_stream);
  ASSERT_TRUE(parsed.ok()) << to_string(parsed.error);
  EXPECT_EQ(parsed.value, "abc");
}

// Error offsets point into the input: a truncated TCP layer inside a packet
// reports an offset past the IP header, not zero.
TEST(DecodeErrors, PacketErrorOffsetsAreAbsolute) {
  const Packet pkt = make_tcp_packet(Ipv4Address(0x0a000001), 1234,
                                     Ipv4Address(0x0a000002), 80,
                                     tcpflag::kSyn, 1, 0);
  Bytes wire = pkt.serialize();
  wire.resize(25);  // mid-TCP-header
  const auto result = Packet::try_parse(wire);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, DecodeError::kTruncated);
  EXPECT_GE(result.error_offset, 20u);
}

// Well-formed traffic decodes byte-identically through both conventions.
TEST(DecodeErrors, WellFormedRoundTrip) {
  const Packet pkt = make_tcp_packet(Ipv4Address(0x0a000001), 1234,
                                     Ipv4Address(0x0a000002), 80,
                                     tcpflag::kPsh | tcpflag::kAck, 7, 9,
                                     to_bytes("GET / HTTP/1.1\r\n\r\n"));
  const Bytes wire = pkt.serialize();
  const auto result = Packet::try_parse(wire);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.consumed, wire.size());
  EXPECT_EQ(result.value.serialize(), Packet::parse(wire).serialize());
}

}  // namespace
}  // namespace caya
