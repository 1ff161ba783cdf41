#include "censor/kazakhstan.h"

#include "censor/core/verdict.h"

namespace caya {

namespace {
/// "Well-formed up to the dot": GET, a path, and the 'HTTP1.' marker. The
/// paper found the minimal working payload is "GET / HTTP1." and that the
/// strategy fails without the trailing dot.
bool benign_get_prefix(std::span<const std::uint8_t> data) {
  const std::string_view text = text_view(data);
  if (!text.starts_with("GET ")) return false;
  return text.find(" HTTP1.") != std::string_view::npos ||
         text.find(" HTTP/1.") != std::string_view::npos;
}
}  // namespace

std::string_view KazakhstanCensor::block_page() {
  // Built once per process; every injection copies it into a leased buffer.
  static const std::string page = [] {
    const std::string body =
        "<html><body>This site is blocked by order of the authorized "
        "state body.</body></html>";
    return "HTTP/1.1 200 OK\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }();
  return page;
}

void KazakhstanCensor::inspect_server_handshake(FlowState& flow,
                                                const Packet& pkt,
                                                Injector& inject) {
  const std::uint8_t flags = pkt.tcp.flags;

  // Strategy 11: a handshake packet with none of SYN/ACK/FIN/RST breaks the
  // box's model of a normal handshake.
  constexpr std::uint8_t kCore =
      tcpflag::kSyn | tcpflag::kAck | tcpflag::kFin | tcpflag::kRst;
  if ((flags & kCore) == 0) {
    flow.ignored = true;
    inject.trace_stage(pkt, Direction::kServerToClient, "kazakhstan",
                       "flow-table", "model violation: null core flags");
    return;
  }

  if (pkt.payload.empty()) {
    flow.consecutive_server_payloads = 0;
    return;
  }

  // Strategy 9: three consecutive payload-bearing server packets during the
  // handshake.
  if (++flow.consecutive_server_payloads >= 3) {
    flow.ignored = true;
    inject.trace_stage(pkt, Direction::kServerToClient, "kazakhstan",
                       "flow-table", "model violation: 3 server payloads");
    return;
  }

  // Probing behaviour: the censor parses server-sent request payloads. A
  // *forbidden* request elicits the block page on the second occurrence; a
  // benign one (twice) convinces the box the server is the client
  // (Strategy 10).
  if (trigger_.match(80, std::span(pkt.payload))) {
    if (++flow.forbidden_server_gets >= 2) {
      ++probe_responses_;
      verdict::block_page(inject, pkt, Direction::kClientToServer,
                          pkt.tcp.ack, pkt.tcp.seq, block_page());
      flow.ignored = true;
    }
    return;
  }
  if (benign_get_prefix(std::span(pkt.payload))) {
    if (++flow.benign_server_gets >= 2) {
      flow.ignored = true;  // "the server is actually the client"
      inject.trace_stage(pkt, Direction::kServerToClient, "kazakhstan",
                         "flow-table", "model violation: server looks like "
                         "the client");
    }
  }
}

Verdict KazakhstanCensor::on_packet(const Packet& pkt, Direction dir,
                                    Injector& inject) {
  const FlowKey key = flows_.key_for(pkt, dir);
  if (!trigger_.applies_to_port(key.server_port)) return Verdict::kPass;

  FlowState& flow = flows_[key];

  // Active man-in-the-middle interception swallows the whole stream.
  if (flow.intercept_until != 0 && inject.now() < flow.intercept_until) {
    return Verdict::kDrop;
  }

  if (dir == Direction::kServerToClient) {
    if (has_flag(pkt.tcp.flags, tcpflag::kSyn) &&
        has_flag(pkt.tcp.flags, tcpflag::kAck)) {
      flow.saw_server_synack = true;
    }
    if (!flow.handshake_done && !flow.ignored) {
      inspect_server_handshake(flow, pkt, inject);
    }
    return Verdict::kPass;
  }

  // Client -> server.
  if (pkt.payload.empty()) return Verdict::kPass;
  flow.handshake_done = true;
  if (flow.ignored) return Verdict::kPass;

  // Packet-mode trigger — no reassembly, so each packet is inspected alone
  // (Strategy 8).
  if (!trigger_.match(key.server_port, std::span(pkt.payload))) {
    return Verdict::kPass;
  }

  inject.trace_stage(pkt, dir, "kazakhstan", "trigger", "packet match");
  ++censored_count_;
  flow.intercept_until = inject.now() + intercept_duration_;

  // Inject the block page at the client, spoofed from the server; the
  // forbidden request itself is swallowed (MITM interception).
  verdict::block_page(inject, pkt, Direction::kServerToClient, pkt.tcp.ack,
                      pkt.tcp.seq + static_cast<std::uint32_t>(
                                        pkt.payload.size()),
                      block_page());
  return Verdict::kDrop;
}

}  // namespace caya
