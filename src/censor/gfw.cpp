#include "censor/gfw.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tcpstack/seq.h"
#include "util/arena.h"

namespace caya {

GfwBoxParams gfw_params(AppProtocol proto) {
  // Calibrated to Table 2; see EXPERIMENTS.md for the paper-vs-measured
  // comparison and the provenance of each constant.
  switch (proto) {
    case AppProtocol::kDnsOverTcp:
      return {.protocol = proto,
              .p_resync_on_rst = 0.50,
              .p_resync_on_corrupt_ack = 0.015,
              .p_corrupt_ack_simopen_boost = 0.095,
              .p_corrupt_ack_payload_sa_boost = 0.05,
              .p_resync_on_payload_syn = 0.45,
              .p_resync_on_payload_other = 0.45,
              .p_client_synack_first_confusion = 0.0,
              .p_reassembly = 1.0,
              .p_miss = 0.007};
    case AppProtocol::kFtp:
      return {.protocol = proto,
              .p_resync_on_rst = 0.50,
              .p_resync_on_corrupt_ack = 0.31,
              .p_corrupt_ack_simopen_boost = 0.64,
              .p_corrupt_ack_payload_sa_boost = 0.96,
              .p_corrupt_ack_rst_boost = 0.70,
              .p_resync_on_payload_syn = 0.34,
              .p_resync_on_payload_other = 0.30,
              .p_client_synack_first_confusion = 0.0,
              .p_reassembly = 0.53,
              .p_confused_by_small_window = 0.46,
              .p_miss = 0.03};
    case AppProtocol::kHttp:
      return {.protocol = proto,
              .p_resync_on_rst = 0.53,
              .p_resync_on_corrupt_ack = 0.0,
              .p_corrupt_ack_simopen_boost = 0.0,
              .p_corrupt_ack_payload_sa_boost = 0.0,
              .p_resync_on_payload_syn = 0.56,
              .p_resync_on_payload_other = 0.51,
              .p_client_synack_first_confusion = 0.0,
              .p_reassembly = 1.0,
              .p_miss = 0.025,
              .residual_duration = duration::sec(90)};
    case AppProtocol::kHttps:
      return {.protocol = proto,
              .p_resync_on_rst = 0.0,  // §5: no RST resync for HTTPS
              .p_resync_on_corrupt_ack = 0.0,
              .p_corrupt_ack_simopen_boost = 0.0,
              .p_corrupt_ack_payload_sa_boost = 0.0,
              .p_resync_on_payload_syn = 0.48,
              .p_resync_on_payload_other = 0.53,
              .p_client_synack_first_confusion = 0.15,
              .p_reassembly = 1.0,
              .p_miss = 0.03};
    case AppProtocol::kSmtp:
      return {.protocol = proto,
              .p_resync_on_rst = 0.60,
              .p_resync_on_corrupt_ack = 0.0,
              .p_corrupt_ack_simopen_boost = 0.0,
              .p_corrupt_ack_payload_sa_boost = 0.0,
              .p_resync_on_payload_syn = 0.45,
              .p_resync_on_payload_other = 0.40,
              .p_client_synack_first_confusion = 0.0,
              .p_reassembly = 0.0,  // SMTP box cannot reassemble (Strategy 8)
              .p_confused_by_small_window = 1.0,
              .p_miss = 0.26};
  }
  return {};
}

std::string_view to_string(GfwRegime regime) noexcept {
  switch (regime) {
    case GfwRegime::kEra2019: return "era-2019";
    case GfwRegime::kEraHttpsResync: return "era-https-resync";
  }
  return "?";
}

GfwBoxParams gfw_params(AppProtocol proto, GfwRegime regime) {
  GfwBoxParams params = gfw_params(proto);
  switch (regime) {
    case GfwRegime::kEra2019:
      break;
    case GfwRegime::kEraHttpsResync:
      // The HTTPS box's posture rolled out fleet-wide: no box re-enters
      // resync on a server RST any more, and the FTP box's RST-conditioned
      // corrupt-ack boost goes with it. Payload-triggered resync persists.
      params.p_resync_on_rst = 0.0;
      params.p_corrupt_ack_rst_boost = 0.0;
      break;
  }
  return params;
}

GfwBox::GfwBox(GfwBoxParams params, ForbiddenContent content, Rng rng)
    : params_(params),
      rng_(rng),
      name_("gfw-" + std::string(to_string(params.protocol))),
      trigger_(std::move(content),
               {{.server_port = 0, .protocol = params.protocol}}) {}

void GfwBox::flush() {
  flows_.reset();
  residual_.reset();
}

void GfwBox::reinit(Rng rng) {
  rng_ = rng;
  flows_.reset();
  flows_.clear_eviction_ledger();
  residual_.reset();
  residual_.clear_eviction_ledger();
  censored_count_ = 0;
  dropped_segments_ = 0;
  rewind_fault_schedule();
}

bool GfwBox::residual_active(Ipv4Address addr, std::uint16_t port,
                             Time now) const {
  return residual_.active(addr.value(), port, now);
}

Verdict GfwBox::on_packet(const Packet& pkt, Direction dir,
                          Injector& inject) {
  if (dir == Direction::kClientToServer) {
    on_client_packet(pkt, inject);
  } else {
    on_server_packet(pkt, inject);
  }
  return Verdict::kPass;  // on-path: observe and inject only
}

void GfwBox::on_server_packet(const Packet& pkt, Injector& inject) {
  const FlowKey key = flows_.key_for(pkt, Direction::kServerToClient);
  Tcb* found = flows_.find(key);
  if (found == nullptr) return;  // no TCB: fail open
  Tcb& tcb = *found;
  if (tcb.dead || tcb.missed) return;

  const std::uint8_t flags = pkt.tcp.flags;
  const bool is_synack =
      has_flag(flags, tcpflag::kSyn) && has_flag(flags, tcpflag::kAck);

  const std::uint32_t end = pkt.tcp.seq + pkt.sequence_length();
  if (tcb.server_next == 0 || seq_gt(end, tcb.server_next)) {
    tcb.server_next = end;
  }

  if (has_flag(flags, tcpflag::kRst)) {
    // Rule 2: a server RST can put the box into resync (never teardown).
    tcb.saw_server_rst = true;
    if (!tcb.rst_resync_draw) {
      tcb.rst_resync_draw = rng_.chance(params_.p_resync_on_rst);
    }
    if (*tcb.rst_resync_draw) {
      tcb.resync = Resync::kNextClientPacket;
      inject.trace_stage(pkt, Direction::kServerToClient, name(),
                         "flow-table", "resync armed by server RST");
    }
    return;
  }

  if (is_synack) {
    if (!pkt.payload.empty()) tcb.saw_synack_with_payload = true;
    if (!tcb.saw_server_synack) {
      tcb.saw_server_synack = true;
      if (pkt.tcp.window < 64 && !pkt.tcp.window_scale() &&
          rng_.chance(params_.p_confused_by_small_window)) {
        tcb.dead = true;  // Strategy 8 against dialogue-protocol boxes
        return;
      }
      if (pkt.tcp.ack != tcb.client_isn + 1) {
        // Rule 3: corrupted ack on the *first* SYN+ACK. Whether the box
        // actually enters resync is decided when the next client packet
        // arrives, because the paper's observed probability depends on what
        // else the server sends in between (Strategies 3/4/5).
        tcb.corrupt_ack_armed = true;
      }
    }
    if (tcb.resync == Resync::kNextServerSaOrClientAck) {
      // Resync target: take the expected client sequence from the SYN+ACK's
      // ack field — corrupted ack => full desynchronization (Strategy 6).
      tcb.expected_client_seq = pkt.tcp.ack;
      tcb.reassembly.rebase(pkt.tcp.ack);
      tcb.resync = Resync::kNone;
      inject.trace_stage(pkt, Direction::kServerToClient, name(),
                         "reassembly", "rebased on server SYN+ACK ack");
    }
    return;
  }

  if (has_flag(flags, tcpflag::kSyn)) {
    tcb.saw_server_bare_syn = true;
  }

  if (!pkt.payload.empty() && !tcb.censor_established) {
    // Rule 1: payload on a non-SYN+ACK server packet *during the
    // handshake*. Ordinary post-handshake data from the server does not
    // perturb the box — otherwise every FTP/SMTP response would constantly
    // re-synchronize it and the Table 2 desync strategies could not work
    // for dialogue protocols.
    const double p = has_flag(flags, tcpflag::kSyn)
                         ? params_.p_resync_on_payload_syn
                         : params_.p_resync_on_payload_other;
    if (!tcb.payload_resync_draw) {
      tcb.payload_resync_draw = rng_.chance(p);
    }
    if (*tcb.payload_resync_draw) {
      tcb.resync = Resync::kNextServerSaOrClientAck;
    }
  }
}

void GfwBox::on_client_packet(const Packet& pkt, Injector& inject) {
  const FlowKey key = flows_.key_for(pkt, Direction::kClientToServer);
  const std::uint8_t flags = pkt.tcp.flags;
  Tcb* found = flows_.find(key);

  if (found == nullptr) {
    // Only a client SYN instantiates a TCB; anything else fails open.
    if (!has_flag(flags, tcpflag::kSyn) || has_flag(flags, tcpflag::kAck)) {
      return;
    }
    Tcb tcb;
    tcb.client_isn = pkt.tcp.seq;
    tcb.expected_client_seq = pkt.tcp.seq + 1;
    tcb.reassembly.rebase(pkt.tcp.seq + 1);
    tcb.can_reassemble =
        Reassembler::draw_capable(rng_, {.p_capable = params_.p_reassembly});
    tcb.missed = rng_.chance(params_.p_miss);
    tcb.residual_kill =
        residual_active(pkt.ip.dst, pkt.tcp.dport, inject.now());
    (void)flows_.try_emplace(key, std::move(tcb));
    inject.trace_stage(pkt, Direction::kClientToServer, name(), "flow-table",
                       "TCB created on client SYN");
    return;
  }

  Tcb& tcb = *found;
  if (tcb.dead || tcb.missed) return;

  // Residual censorship: tear down right after the handshake completes.
  if (tcb.residual_kill && has_flag(flags, tcpflag::kAck)) {
    inject.trace_stage(pkt, Direction::kClientToServer, name(), "verdict",
                       "residual-censorship teardown");
    verdict::rst_teardown(inject, key, pkt.tcp.seq,
                          pkt.tcp.seq + pkt.sequence_length(),
                          tcb.server_next);
    tcb.dead = true;
    ++censored_count_;
    return;
  }

  const bool is_client_synack =
      has_flag(flags, tcpflag::kSyn) && has_flag(flags, tcpflag::kAck);
  if (is_client_synack && !tcb.saw_server_synack &&
      rng_.chance(params_.p_client_synack_first_confusion)) {
    // The box expected the server to speak first; it loses the flow.
    tcb.dead = true;
    return;
  }

  bool just_synced = false;

  // Pending corrupt-ack decision (rule 3): made at the next client packet,
  // with the boosts the paper measured but could not explain.
  if (tcb.corrupt_ack_armed) {
    tcb.corrupt_ack_armed = false;
    double p = params_.p_resync_on_corrupt_ack;
    if (tcb.saw_server_bare_syn) {
      p = std::max(p, params_.p_corrupt_ack_simopen_boost);
    }
    if (tcb.saw_synack_with_payload) {
      p = std::max(p, params_.p_corrupt_ack_payload_sa_boost);
    }
    if (tcb.saw_server_rst) {
      p = std::max(p, params_.p_corrupt_ack_rst_boost);
    }
    if (rng_.chance(p)) {
      tcb.resync = Resync::kNextClientPacket;
    }
  }

  // Resyncing on a client packet adopts that packet's sequence number as
  // the current stream position (its own payload, if any, is inspected
  // below). The box believes the handshake is over, so a simultaneous-open
  // SYN+ACK (whose seq is still the ISN) leaves it one byte short
  // (Strategies 1/2), and an induced RST leaves it at garbage
  // (Strategies 3/5/7).
  if (tcb.resync == Resync::kNextClientPacket ||
      (tcb.resync == Resync::kNextServerSaOrClientAck &&
       has_flag(flags, tcpflag::kAck))) {
    tcb.expected_client_seq = pkt.tcp.seq;
    tcb.reassembly.rebase(pkt.tcp.seq);
    tcb.resync = Resync::kNone;
    just_synced = true;
    inject.trace_stage(pkt, Direction::kClientToServer, name(), "reassembly",
                       "rebased on client packet");
  }

  if ((has_flag(flags, tcpflag::kRst) || has_flag(flags, tcpflag::kFin)) &&
      !just_synced) {
    // When the censor believes the *client* terminated the connection (a
    // valid RST or FIN) it deletes the TCB and ignores subsequent packets —
    // the shortcut client-side teardown strategies exploit (§2.1). Invalid
    // sequence numbers are ignored.
    if (pkt.tcp.seq == tcb.expected_client_seq) {
      tcb.dead = true;
      return;
    }
    if (has_flag(flags, tcpflag::kRst)) return;
  }

  // Any ACK-bearing client packet past this point marks the handshake as
  // complete in the box's eyes (whether or not its notion of sequence
  // numbers is still right).
  if (has_flag(flags, tcpflag::kAck)) tcb.censor_established = true;

  if (pkt.payload.empty()) return;

  if (tcb.can_reassemble) {
    // Stream mode: buffer the segment and inspect the contiguous prefix
    // from the believed stream base (arena-leased scratch).
    if (!tcb.reassembly.add_segment(pkt.tcp.seq, pkt.payload)) {
      // Budget exceeded: the segment is shed (fail open) and accounted.
      ++dropped_segments_;
      inject.trace_stage(pkt, Direction::kClientToServer, name(),
                         "reassembly", "segment budget drop");
    }
    BufferArena::Scoped assembled;
    tcb.reassembly.assemble(*assembled);
    if (!assembled->empty() &&
        trigger_.match(key.server_port, std::span(*assembled))) {
      inject.trace_stage(pkt, Direction::kClientToServer, name(), "trigger",
                         "stream match");
      censor_flow(tcb, key, pkt, inject);
    }
  } else {
    // Packet mode: inspect exactly-in-order packets in isolation.
    if (pkt.tcp.seq == tcb.expected_client_seq) {
      if (trigger_.match(key.server_port, std::span(pkt.payload))) {
        inject.trace_stage(pkt, Direction::kClientToServer, name(), "trigger",
                           "packet match");
        censor_flow(tcb, key, pkt, inject);
        return;
      }
      tcb.expected_client_seq +=
          static_cast<std::uint32_t>(pkt.payload.size());
    }
  }
}

void GfwBox::censor_flow(Tcb& tcb, const FlowKey& key,
                         const Packet& offending, Injector& inject) {
  inject.trace_stage(offending, Direction::kClientToServer, name(), "verdict",
                     "RST teardown");
  verdict::rst_teardown(inject, key, offending.tcp.seq,
                        offending.tcp.seq + offending.sequence_length(),
                        tcb.server_next);
  tcb.dead = true;
  ++censored_count_;
  if (params_.residual_duration > 0) {
    residual_.arm(key.server_addr, key.server_port,
                  inject.now() + params_.residual_duration);
  }
}

GfwBoxParams single_box_params(AppProtocol proto) {
  // One shared network stack: every protocol matcher rides on the HTTP
  // box's TCP engine (same resync behaviour, same reassembly, same bugs).
  GfwBoxParams params = gfw_params(AppProtocol::kHttp);
  params.protocol = proto;
  params.residual_duration = 0;
  return params;
}

ChinaCensor::ChinaCensor(ForbiddenContent content, Rng rng,
                         Architecture architecture, GfwRegime regime)
    : architecture_(architecture) {
  // Under the single-box counterfactual, every "box" shares one stack's
  // parameters AND one RNG stream, so the per-flow resync draws coincide:
  // a TCP-level bug either fires for all protocols or for none.
  Rng shared = rng.fork();
  for (const AppProtocol proto : all_protocols()) {
    const GfwBoxParams params = architecture == Architecture::kMultiBox
                                    ? gfw_params(proto, regime)
                                    : single_box_params(proto);
    boxes_.push_back(std::make_unique<GfwBox>(
        params, content,
        architecture == Architecture::kMultiBox ? rng.fork() : shared));
  }
}

std::vector<Middlebox*> ChinaCensor::middleboxes() {
  std::vector<Middlebox*> out;
  out.reserve(boxes_.size());
  for (const auto& box : boxes_) out.push_back(box.get());
  return out;
}

GfwBox& ChinaCensor::box(AppProtocol proto) {
  return const_cast<GfwBox&>(std::as_const(*this).box(proto));
}

const GfwBox& ChinaCensor::box(AppProtocol proto) const {
  for (const auto& box : boxes_) {
    if (box->protocol() == proto) return *box;
  }
  throw std::logic_error("no such GFW box");
}

void ChinaCensor::flush() {
  for (const auto& box : boxes_) box->flush();
}

void ChinaCensor::reinit(Rng rng) {
  // Replays the constructor's stream handling: the shared stream is forked
  // first (always, so multi- and single-box runs draw from the same well),
  // then each box gets its own fork — or a copy of the shared stream under
  // the single-box ablation, exactly as at construction.
  Rng shared = rng.fork();
  for (const auto& box : boxes_) {
    box->reinit(architecture_ == Architecture::kMultiBox ? rng.fork()
                                                         : shared);
  }
}

}  // namespace caya
