// Quickstart: parse a Geneva strategy from its DSL, run it through the
// strategy engine on a SYN+ACK, and print what actually hits the wire.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the library: no simulator, no
// censor — just the DSL, the action trees, and the packet model.
#include <cstdio>

#include "geneva/engine.h"
#include "geneva/parser.h"

int main() {
  using namespace caya;

  // Strategy 1 from the paper: replace the outbound SYN+ACK with a RST
  // followed by a bare SYN (triggering TCP simultaneous open at the client).
  const char* dsl =
      "[TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},"
      "tamper{TCP:flags:replace:S})-| \\/";

  Strategy strategy = parse_strategy(dsl);
  std::printf("parsed strategy : %s\n", strategy.to_string().c_str());
  std::printf("tree size       : %zu nodes\n\n", strategy.size());

  // A server's SYN+ACK, as its TCP stack would emit it.
  Packet synack = make_tcp_packet(
      /*src=*/Ipv4Address::parse("93.184.216.34"), /*sport=*/80,
      /*dst=*/Ipv4Address::parse("101.6.8.2"), /*dport=*/40000,
      tcpflag::kSyn | tcpflag::kAck, /*seq=*/50000, /*ack=*/10001);
  synack.tcp.set_option(TcpOption::kWindowScale, {7});
  std::printf("stack emits     : %s\n", synack.summary().c_str());

  // The engine is the libnetfilter_queue-equivalent shim: packets pass
  // through it on their way to the wire.
  Engine engine(std::move(strategy), Rng(42));
  std::vector<Packet> wire_packets;
  engine.process_outbound_into(std::move(synack), wire_packets);

  std::printf("wire carries    : %zu packets\n", wire_packets.size());
  for (const auto& pkt : wire_packets) {
    std::printf("  %s  (checksum %s)\n", pkt.summary().c_str(),
                pkt.tcp_checksum_valid() ? "valid" : "corrupt");
  }

  // Non-matching packets pass through untouched.
  Packet data = make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                                Ipv4Address::parse("101.6.8.2"), 40000,
                                tcpflag::kPsh | tcpflag::kAck, 50001, 10001,
                                to_bytes("HTTP/1.1 200 OK\r\n\r\nhi"));
  std::vector<Packet> untouched;
  engine.process_outbound_into(std::move(data), untouched);
  std::printf("\nnon-SYN+ACK packets pass through: %zu packet, len=%zu\n",
              untouched.size(), untouched[0].payload.size());
  return 0;
}
