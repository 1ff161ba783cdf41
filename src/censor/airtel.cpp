#include "censor/airtel.h"

#include "censor/core/verdict.h"

namespace caya {

std::string_view AirtelCensor::block_page() {
  // Built once per process; every injection copies it into a leased buffer.
  static const std::string page = [] {
    const std::string body =
        "<html><body>This website has been blocked as per instructions of "
        "the Department of Telecommunications.</body></html>";
    return "HTTP/1.1 200 OK\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }();
  return page;
}

Verdict AirtelCensor::on_packet(const Packet& pkt, Direction dir,
                                Injector& inject) {
  if (dir != Direction::kClientToServer) return Verdict::kPass;
  if (pkt.payload.empty()) return Verdict::kPass;
  if (!trigger_.match(pkt.tcp.dport, std::span(pkt.payload))) {
    return Verdict::kPass;
  }

  inject.trace_stage(pkt, dir, "airtel", "trigger", "packet match");
  ++censored_count_;
  const auto payload_end =
      pkt.tcp.seq + static_cast<std::uint32_t>(pkt.payload.size());

  // Block page to the client (FIN+PSH+ACK), spoofed from the server. Being
  // stateless, the box derives the server-side sequence number from the
  // client packet's ack field; a follow-up RST closes the client out.
  verdict::block_page(inject, pkt, Direction::kServerToClient, pkt.tcp.ack,
                      payload_end, block_page());
  verdict::follow_up_rst(
      inject, pkt, Direction::kServerToClient,
      pkt.tcp.ack + static_cast<std::uint32_t>(block_page().size()) + 1,
      payload_end);
  return Verdict::kPass;
}

}  // namespace caya
