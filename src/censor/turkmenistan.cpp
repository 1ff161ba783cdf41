#include "censor/turkmenistan.h"

#include <utility>

#include "censor/core/verdict.h"

namespace caya {

/// RST+ACK copies fired toward the client per censorship event.
constexpr int kRstAcksToClient = 3;

TurkmenistanCensor::TurkmenistanCensor(ForbiddenContent content, Rng rng,
                                       TurkmenistanParams params)
    : params_(params),
      rng_(rng),
      trigger_(std::move(content),
               {{.server_port = 80, .matcher = &http_host_match},
                {.server_port = 443, .matcher = &sni_match}}) {}

Verdict TurkmenistanCensor::on_packet(const Packet& pkt, Direction dir,
                                      Injector& inject) {
  const FlowKey key = flows_.key_for(pkt, dir);
  if (!trigger_.applies_to_port(key.server_port)) return Verdict::kPass;

  FlowState* found = flows_.find(key);

  if (dir == Direction::kClientToServer) {
    const std::uint8_t flags = pkt.tcp.flags;
    if (found == nullptr) {
      // Only a client SYN instantiates a TCB; anything else fails open —
      // the censor never injects into a flow it has no TCB for.
      if (!has_flag(flags, tcpflag::kSyn) || has_flag(flags, tcpflag::kAck)) {
        return Verdict::kPass;
      }
      FlowState flow;
      flow.expected_client_seq = pkt.tcp.seq + 1;
      flow.missed = rng_.chance(params_.p_miss);
      (void)flows_.try_emplace(key, flow);
      inject.trace_stage(pkt, dir, "turkmenistan", "flow-table",
                         "TCB created on client SYN");
      return Verdict::kPass;
    }
    FlowState& flow = *found;
    if (flow.torn_down || flow.dead || flow.missed) return Verdict::kPass;

    // Naive TCB teardown: a client RST or FIN at the expected sequence
    // number deletes the censor's interest in the flow. This is exactly
    // what TTL-limited or checksum-corrupt insertion RSTs exploit.
    if ((has_flag(flags, tcpflag::kRst) || has_flag(flags, tcpflag::kFin)) &&
        pkt.tcp.seq == flow.expected_client_seq) {
      flow.torn_down = true;
      inject.trace_stage(pkt, dir, "turkmenistan", "flow-table",
                         "TCB torn down by client RST/FIN");
      return Verdict::kPass;
    }

    if (pkt.payload.empty()) return Verdict::kPass;

    // Packet-mode trigger: each packet inspected in isolation, so any
    // segmentation of the Host header / SNI fails open (no reassembler).
    if (trigger_.match(key.server_port, std::span(pkt.payload))) {
      inject.trace_stage(pkt, dir, "turkmenistan", "trigger", "packet match");
      censor_flow(flow, key, pkt, dir, inject);
      return Verdict::kPass;
    }
    if (pkt.tcp.seq == flow.expected_client_seq) {
      flow.expected_client_seq +=
          static_cast<std::uint32_t>(pkt.payload.size());
    }
    return Verdict::kPass;
  }

  // Server -> client: bidirectional matching. The censor inspects server
  // payloads with the same packet-mode trigger (Nourin et al. triggered it
  // from outside with server-to-client probes), but it still requires a
  // live TCB.
  if (found == nullptr) return Verdict::kPass;
  FlowState& flow = *found;
  if (flow.torn_down || flow.dead || flow.missed) return Verdict::kPass;
  if (pkt.payload.empty()) return Verdict::kPass;
  if (trigger_.match(key.server_port, std::span(pkt.payload))) {
    inject.trace_stage(pkt, dir, "turkmenistan", "trigger",
                       "packet match (server side)");
    censor_flow(flow, key, pkt, dir, inject);
  }
  return Verdict::kPass;
}

void TurkmenistanCensor::censor_flow(FlowState& flow, const FlowKey& key,
                                     const Packet& pkt, Direction dir,
                                     Injector& inject) {
  inject.trace_stage(pkt, dir, "turkmenistan", "verdict",
                     "bidirectional RST+ACK");
  const auto len = static_cast<std::uint32_t>(pkt.payload.size());
  if (dir == Direction::kClientToServer) {
    verdict::bidirectional_rst_ack(inject, key, pkt.tcp.seq, pkt.tcp.ack,
                                   len, kRstAcksToClient);
  } else {
    // Mirror the anchor points for a server-side trigger: the client's next
    // sequence is the packet's ack, the server position its seq end.
    verdict::bidirectional_rst_ack(inject, key, pkt.tcp.ack,
                                   pkt.tcp.seq + len, 0, kRstAcksToClient);
  }
  flow.dead = true;
  ++censored_count_;
}

}  // namespace caya
