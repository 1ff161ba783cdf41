#include "geneva/species.h"

#include <set>

#include "util/fnv.h"

namespace caya {

namespace {

std::vector<Packet> canonical_probes() {
  const Ipv4Address src = Ipv4Address::parse("192.0.2.1");
  const Ipv4Address dst = Ipv4Address::parse("198.51.100.1");
  std::vector<Packet> probes;
  Packet sa = make_tcp_packet(src, 80, dst, 40000,
                              tcpflag::kSyn | tcpflag::kAck, 1000, 2001);
  sa.tcp.set_option(TcpOption::kWindowScale, {7});
  probes.push_back(std::move(sa));
  probes.push_back(make_tcp_packet(src, 80, dst, 40000, tcpflag::kSyn, 1000,
                                   0));
  probes.push_back(make_tcp_packet(src, 80, dst, 40000, tcpflag::kAck, 1001,
                                   2001));
  probes.push_back(make_tcp_packet(src, 80, dst, 40000,
                                   tcpflag::kPsh | tcpflag::kAck, 1001, 2001,
                                   to_bytes("GET / HTTP/1.1\r\n\r\n")));
  probes.push_back(make_tcp_packet(src, 80, dst, 40000, tcpflag::kRst, 1001,
                                   0));
  return probes;
}

// Hash a packet structurally. Random (corrupt) values differ run to run
// only through the RNG; we fix the RNG seed, so identical trees hash
// identically, while value-level randomness is still covered because
// corrupt draws are deterministic under the fixed seed.
void mix_packet(Fnv1a& hash, const Packet& pkt) {
  hash.add(pkt.tcp.flags);
  hash.add_le(pkt.payload.size(), 2);
  hash.add(std::span(pkt.payload));
  hash.add_le(pkt.tcp.seq, 4);
  hash.add_le(pkt.tcp.ack, 4);
  hash.add_le(pkt.tcp.window, 2);
  hash.add(pkt.ip.ttl);
  hash.add(pkt.tcp_checksum_overridden ? 1 : 0);
  hash.add(pkt.tcp.window_scale() ? 1 : 0);
}

}  // namespace

std::uint64_t strategy_fingerprint(const Strategy& strategy) {
  Fnv1a hash;
  Rng rng(0xC0FFEE);  // fixed: corrupt draws are reproducible
  std::vector<Packet> out;
  for (const Packet& probe : canonical_probes()) {
    hash.add(0xfe);  // probe separator
    out.clear();
    strategy.apply_outbound_into(probe, rng, out);
    for (const Packet& pkt : out) mix_packet(hash, pkt);
    out.clear();
    strategy.apply_inbound_into(probe, rng, out);
    hash.add(0xfd);
    for (const Packet& pkt : out) mix_packet(hash, pkt);
  }
  return hash.value();
}

std::vector<Strategy> distinct_species(
    const std::vector<Strategy>& strategies) {
  std::set<std::uint64_t> seen;
  std::vector<Strategy> out;
  for (const auto& strategy : strategies) {
    if (seen.insert(strategy_fingerprint(strategy)).second) {
      out.push_back(strategy);
    }
  }
  return out;
}

}  // namespace caya
