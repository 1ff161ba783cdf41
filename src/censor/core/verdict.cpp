#include "censor/core/verdict.h"

#include <utility>

#include "util/bytes.h"

namespace caya {
namespace verdict {

void rst_teardown(Injector& inject, const FlowKey& flow,
                  std::uint32_t client_start, std::uint32_t client_next,
                  std::uint32_t server_next) {
  for (const std::uint32_t seq : {client_start, client_next}) {
    Packet to_server = make_tcp_packet(
        Ipv4Address(flow.client_addr), flow.client_port,
        Ipv4Address(flow.server_addr), flow.server_port, tcpflag::kRst, seq,
        0);
    inject.inject(std::move(to_server), Direction::kClientToServer);
  }
  Packet to_client = make_tcp_packet(
      Ipv4Address(flow.server_addr), flow.server_port,
      Ipv4Address(flow.client_addr), flow.client_port,
      tcpflag::kRst | tcpflag::kAck, server_next, client_next);
  inject.inject(std::move(to_client), Direction::kServerToClient);
}

void bidirectional_rst_ack(Injector& inject, const FlowKey& flow,
                           std::uint32_t client_seq, std::uint32_t client_ack,
                           std::uint32_t payload_len, int copies_to_client) {
  const std::uint32_t client_next = client_seq + payload_len;
  for (int i = 0; i < copies_to_client; ++i) {
    // Staggered seqs ride the client's ack (the injector's view of the
    // server stream position), so at least one lands in-window.
    Packet to_client = make_tcp_packet(
        Ipv4Address(flow.server_addr), flow.server_port,
        Ipv4Address(flow.client_addr), flow.client_port,
        tcpflag::kRst | tcpflag::kAck,
        client_ack + static_cast<std::uint32_t>(i), client_next);
    inject.inject(std::move(to_client), Direction::kServerToClient);
  }
  Packet to_server = make_tcp_packet(
      Ipv4Address(flow.client_addr), flow.client_port,
      Ipv4Address(flow.server_addr), flow.server_port,
      tcpflag::kRst | tcpflag::kAck, client_next, client_ack);
  inject.inject(std::move(to_server), Direction::kClientToServer);
}

void block_page(Injector& inject, const Packet& trigger, Direction toward,
                std::uint32_t seq, std::uint32_t ack, std::string_view page) {
  Packet pkt = make_tcp_packet(trigger.ip.dst, trigger.tcp.dport,
                               trigger.ip.src, trigger.tcp.sport,
                               tcpflag::kFin | tcpflag::kPsh | tcpflag::kAck,
                               seq, ack);
  pkt.payload.assign(byte_view(page));
  inject.inject(std::move(pkt), toward);
}

void follow_up_rst(Injector& inject, const Packet& trigger, Direction toward,
                   std::uint32_t seq, std::uint32_t ack) {
  Packet pkt = make_tcp_packet(trigger.ip.dst, trigger.tcp.dport,
                               trigger.ip.src, trigger.tcp.sport,
                               tcpflag::kRst | tcpflag::kAck, seq, ack);
  inject.inject(std::move(pkt), toward);
}

}  // namespace verdict
}  // namespace caya
