// Known answers for the Geneva engine and the genetic operators over a
// corpus of 20 000 strategies evolved from fixed seeds.
//
// Strategy s starts from Rng(s): two random strategies, then rng.index(8)
// rounds in which the first is mutated and, with probability 0.4, crossed
// with the second. A strategy is digested from its DSL string, its node
// count, and every packet its outbound and inbound rules emit for six probe
// packets under Rng(s): the wire bytes plus the checksum memo's answer. The
// digest of each block of 2 000 strategies was computed once and pinned
// here, so any change to how a tree is drawn, mutated, crossed, printed or
// run shows up as a failing block.
//
// Every strategy also goes through print -> parse: the reparsed strategy
// prints the same string and digests the same.
#include <gtest/gtest.h>

#include <array>

#include "geneva/mutation.h"
#include "geneva/parser.h"
#include "packet/dns.h"
#include "util/fnv.h"

namespace caya {
namespace {

constexpr std::uint64_t kBlock = 2'000;

// FNV-1a over the block's per-strategy digests, in seed order.
constexpr std::array<std::uint64_t, 10> kBlockDigests = {
    0x53a9de324e9fac7d, 0x9c7351ca0e701bd7, 0xf2724fb2dc0f4bca,
    0x272cd11502dc9ecf, 0x1d18cab3bf93fc18, 0xff999ae6c65f77f4,
    0x24792bcf81978733, 0xc65b0e9ee7ec5919, 0x7d4f2c0ff6b36ca3,
    0x9974126b9433bf7b,
};

// Every probe below meets a rule on one of these triggers.
GeneConfig corpus_genes() {
  const Field& flags = lookup_field(Proto::kTcp, "flags");
  GeneConfig genes;
  genes.allowed_triggers = {{flags, "SA"}, {flags, "PA"}, {flags, "A"},
                            {flags, "R"}};
  return genes;
}

Packet server_packet(std::uint8_t flags, Bytes payload = {}) {
  return make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                         Ipv4Address::parse("10.0.0.2"), 40000, flags, 50000,
                         10001, std::move(payload));
}

// A SYN+ACK with all four TCP options, an HTTP and a DNS-over-TCP PSH+ACK, a
// SYN, an ACK and a RST. Each checksum memo is warm, so a tamper must keep
// it current. (Not a static: a payload must not outlive its thread's
// buffer arena.)
std::vector<Packet> probes() {
  Packet synack = server_packet(tcpflag::kSyn | tcpflag::kAck);
  synack.tcp.set_option(TcpOption::kMss, {0x05, 0xb4});
  synack.tcp.set_option(TcpOption::kSackPermitted, {});
  synack.tcp.set_option(TcpOption::kTimestamps, {0, 0, 1, 2, 0, 0, 3, 4});
  synack.tcp.set_option(TcpOption::kWindowScale, {7});
  std::vector<Packet> out = {
      synack,
      server_packet(tcpflag::kPsh | tcpflag::kAck,
                    to_bytes("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")),
      make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 40000,
                      Ipv4Address::parse("8.8.8.8"), 53,
                      tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                      build_dns_query({.id = 0x1234,
                                       .qname = "www.wikipedia.org"})),
      server_packet(tcpflag::kSyn),
      server_packet(tcpflag::kAck),
      server_packet(tcpflag::kRst),
  };
  for (const Packet& pkt : out) (void)pkt.computed_tcp_checksum();
  return out;
}

Strategy evolved(std::uint64_t seed, const GeneConfig& genes) {
  Rng rng(seed);
  Strategy a = random_strategy(genes, rng);
  Strategy b = random_strategy(genes, rng);
  for (std::size_t round = rng.index(8); round > 0; --round) {
    mutate(a, genes, rng);
    if (rng.chance(0.4)) crossover(a, b, rng);
  }
  return a;
}

void add_packets(Fnv1a& hash, const std::vector<Packet>& packets) {
  hash.add_le(packets.size());
  for (const Packet& pkt : packets) {
    hash.add(pkt.serialize());
    hash.add_le(pkt.computed_tcp_checksum(), 2);
  }
}

std::uint64_t digest(const Strategy& strategy, std::uint64_t seed,
                     const std::vector<Packet>& probes) {
  Fnv1a hash;
  hash.add(strategy.to_string());
  hash.add_le(strategy.size());
  Rng rng(seed);
  std::vector<Packet> out;
  for (const Packet& probe : probes) {
    out.clear();
    strategy.apply_outbound_into(probe, rng, out);
    add_packets(hash, out);
    out.clear();
    strategy.apply_inbound_into(probe, rng, out);
    add_packets(hash, out);
  }
  return hash.value();
}

class StrategyCorpus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StrategyCorpus, BlockDigest) {
  const GeneConfig genes = corpus_genes();
  const std::vector<Packet> packets = probes();
  const std::size_t block = GetParam();
  Fnv1a hash;
  for (std::uint64_t s = block * kBlock; s < (block + 1) * kBlock; ++s) {
    const Strategy strategy = evolved(s, genes);
    const std::string printed = strategy.to_string();
    const std::uint64_t d = digest(strategy, s, packets);
    const Strategy reparsed = parse_strategy(printed);
    ASSERT_EQ(reparsed.to_string(), printed) << "strategy " << s;
    ASSERT_EQ(digest(reparsed, s, packets), d)
        << "strategy " << s << ": " << printed;
    hash.add_le(d);
  }
  EXPECT_EQ(hash.value(), kBlockDigests[block])
      << "block " << block << " digests to 0x" << std::hex << hash.value();
}

INSTANTIATE_TEST_SUITE_P(Blocks, StrategyCorpus,
                         ::testing::Range<std::size_t>(0,
                                                       kBlockDigests.size()));

}  // namespace
}  // namespace caya
