#include "tcpstack/tcp_endpoint.h"

#include <algorithm>
#include <cassert>

#include "tcpstack/seq.h"

namespace caya {

std::string_view to_string(TcpState state) noexcept {
  switch (state) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kListen:
      return "LISTEN";
    case TcpState::kSynSent:
      return "SYN-SENT";
    case TcpState::kSynReceived:
      return "SYN-RECEIVED";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN-WAIT-1";
    case TcpState::kFinWait2:
      return "FIN-WAIT-2";
    case TcpState::kCloseWait:
      return "CLOSE-WAIT";
    case TcpState::kLastAck:
      return "LAST-ACK";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kTimeWait:
      return "TIME-WAIT";
  }
  return "?";
}

TcpEndpoint::TcpEndpoint(EventLoop& loop, Config config, TransmitFn transmit)
    : loop_(loop), config_(std::move(config)), transmit_(std::move(transmit)) {}

void TcpEndpoint::connect() {
  iss_ = config_.isn;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  send_base_seq_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  send_segment(tcpflag::kSyn, iss_, 0, {}, /*advertise_options=*/true);
  arm_retransmit_timer();
}

void TcpEndpoint::listen() { state_ = TcpState::kListen; }

void TcpEndpoint::send_data(Bytes data) {
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send();
  }
}

void TcpEndpoint::close() {
  fin_queued_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send();
  }
}

void TcpEndpoint::abort() {
  if (state_ != TcpState::kClosed && state_ != TcpState::kListen) {
    send_rst(snd_nxt_, rcv_nxt_, /*with_ack=*/true);
  }
  state_ = TcpState::kClosed;
  ++timer_generation_;  // cancel timers
}

void TcpEndpoint::deliver(const Packet& pkt) {
  if (!packet_matches_flow(pkt)) return;
  if (config_.os.verifies_checksum && !pkt.tcp_checksum_valid()) return;

  switch (state_) {
    case TcpState::kClosed:
      return;
    case TcpState::kListen:
      handle_listen(pkt);
      return;
    case TcpState::kSynSent:
      handle_syn_sent(pkt);
      return;
    case TcpState::kSynReceived:
      handle_syn_received(pkt);
      return;
    default:
      handle_synchronized(pkt);
      return;
  }
}

bool TcpEndpoint::packet_matches_flow(const Packet& pkt) const noexcept {
  if (pkt.ip.dst != config_.local_addr || pkt.tcp.dport != config_.local_port) {
    return false;
  }
  if (state_ == TcpState::kListen || state_ == TcpState::kClosed) return true;
  return pkt.ip.src == config_.remote_addr &&
         pkt.tcp.sport == config_.remote_port;
}

void TcpEndpoint::handle_listen(const Packet& pkt) {
  if (has_flag(pkt.tcp.flags, tcpflag::kRst)) return;
  if (!has_flag(pkt.tcp.flags, tcpflag::kSyn) ||
      has_flag(pkt.tcp.flags, tcpflag::kAck)) {
    return;  // only a bare SYN opens a connection
  }
  config_.remote_addr = pkt.ip.src;
  config_.remote_port = pkt.tcp.sport;
  irs_ = pkt.tcp.seq;
  rcv_nxt_ = pkt.tcp.seq + 1;  // SYN consumes one sequence number
  update_peer_window(pkt);
  iss_ = config_.isn;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  send_base_seq_ = iss_ + 1;
  state_ = TcpState::kSynReceived;
  send_segment(tcpflag::kSyn | tcpflag::kAck, iss_, rcv_nxt_, {},
               /*advertise_options=*/true);
  arm_retransmit_timer();
}

void TcpEndpoint::handle_syn_sent(const Packet& pkt) {
  const std::uint8_t flags = pkt.tcp.flags;
  const bool has_ack = has_flag(flags, tcpflag::kAck);

  if (has_flag(flags, tcpflag::kRst)) {
    // RFC 793 resets are only acceptable in SYN-SENT when they acknowledge
    // our SYN; in practice every modern stack additionally ignores a RST
    // without ACK here (the paper leans on this for Strategy 1).
    if (!has_ack && config_.os.ignores_presync_rst_without_ack) return;
    if (has_ack && pkt.tcp.ack == snd_nxt_) {
      fail_connection();
    }
    return;
  }

  if (has_ack && pkt.tcp.ack != snd_nxt_) {
    // Unacceptable ACK: reply with a RST carrying the bogus ack as its
    // sequence number (RFC 793). This is the "induced RST" that several GFW
    // strategies depend on.
    if (!suppress_induced_rst_) {
      send_rst(pkt.tcp.ack, 0, /*with_ack=*/false);
    }
    return;
  }

  if (has_flag(flags, tcpflag::kSyn)) {
    irs_ = pkt.tcp.seq;
    rcv_nxt_ = pkt.tcp.seq + 1;
    update_peer_window(pkt);
    if (has_ack) {
      // Normal SYN+ACK. A payload on it is accepted into the stream only by
      // Windows/macOS lineages (§7); Linux ACKs but discards it.
      snd_una_ = pkt.tcp.ack;
      if (!pkt.payload.empty() && config_.os.accepts_synack_payload) {
        rcv_nxt_ += static_cast<std::uint32_t>(pkt.payload.size());
        received_.insert(received_.end(), pkt.payload.begin(),
                         pkt.payload.end());
        if (on_data) on_data(pkt.payload.bytes());
      }
      // The handshake ACK goes out before the application learns the
      // connection is up (and possibly queues its request).
      state_ = TcpState::kEstablished;
      send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
      enter_established();
      try_send();
      return;
    }
    // Bare SYN: RFC 793 simultaneous open. Our SYN+ACK retains the ISN; the
    // sequence number does not advance until the handshake completes.
    if (!config_.os.supports_simultaneous_open) return;
    state_ = TcpState::kSynReceived;
    send_segment(tcpflag::kSyn | tcpflag::kAck, iss_, rcv_nxt_);
    arm_retransmit_timer();
    return;
  }
  // Anything else (e.g. Strategy 6's FIN-with-payload before the handshake)
  // is ignored in SYN-SENT.
}

void TcpEndpoint::handle_syn_received(const Packet& pkt) {
  const std::uint8_t flags = pkt.tcp.flags;

  if (has_flag(flags, tcpflag::kRst)) {
    // Acceptable reset tears the embryonic connection down.
    if (pkt.tcp.seq == rcv_nxt_) fail_connection();
    return;
  }

  if (has_flag(flags, tcpflag::kSyn) && !has_flag(flags, tcpflag::kAck)) {
    // Duplicate SYN (e.g. Strategy 2's payload-bearing second SYN): the
    // payload is ignored but the current sequence number is re-acknowledged.
    send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
    return;
  }

  if (has_flag(flags, tcpflag::kAck)) {
    if (pkt.tcp.ack == snd_nxt_) {
      snd_una_ = pkt.tcp.ack;
      update_peer_window(pkt);
      const bool was_syn_ack = has_flag(flags, tcpflag::kSyn);
      state_ = TcpState::kEstablished;
      if (was_syn_ack) {
        // Simultaneous-open peer: acknowledge its SYN+ACK before the
        // application reacts.
        send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
      }
      enter_established();
      // Process any piggybacked payload/FIN through the synchronized path.
      if (!pkt.payload.empty() || has_flag(flags, tcpflag::kFin)) {
        handle_synchronized(pkt);
      } else {
        try_send();
      }
      return;
    }
    // Unacceptable ACK in SYN-RECEIVED: reset per RFC 793.
    if (!suppress_induced_rst_) {
      send_rst(pkt.tcp.ack, 0, /*with_ack=*/false);
    }
    return;
  }
}

void TcpEndpoint::handle_synchronized(const Packet& pkt) {
  const std::uint8_t flags = pkt.tcp.flags;

  if (has_flag(flags, tcpflag::kRst)) {
    // In-window check: RSTs from censors carry the live sequence number;
    // RSTs with stale or corrupted sequence numbers are ignored.
    const std::uint32_t offset = pkt.tcp.seq - rcv_nxt_;
    if (offset < config_.advertised_window) {
      fail_connection();
    }
    return;
  }

  if (has_flag(flags, tcpflag::kSyn)) {
    // Duplicate SYN+ACK (Strategies 9/10 replay the handshake with payloads):
    // a synchronized endpoint answers with a bare ACK and ignores the rest.
    send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
    return;
  }

  if (has_flag(flags, tcpflag::kAck)) {
    if (seq_gt(pkt.tcp.ack, snd_una_) && seq_le(pkt.tcp.ack, snd_nxt_)) {
      const std::uint32_t newly_acked = pkt.tcp.ack - send_base_seq_;
      if (newly_acked > 0 && newly_acked <= send_buffer_.size()) {
        send_buffer_.erase(send_buffer_.begin(),
                           send_buffer_.begin() +
                               static_cast<std::ptrdiff_t>(newly_acked));
        send_base_seq_ = pkt.tcp.ack;
      } else if (newly_acked > send_buffer_.size()) {
        // FIN (or SYN) acknowledged; drop everything.
        send_buffer_.clear();
        send_base_seq_ = pkt.tcp.ack;
      }
      snd_una_ = pkt.tcp.ack;
      retransmit_attempts_ = 0;
      if (state_ == TcpState::kFinWait1 && fin_sent_ &&
          snd_una_ == snd_nxt_) {
        state_ = TcpState::kFinWait2;
      } else if (state_ == TcpState::kLastAck && snd_una_ == snd_nxt_) {
        state_ = TcpState::kClosed;
        ++timer_generation_;
      } else if (state_ == TcpState::kClosing && snd_una_ == snd_nxt_) {
        state_ = TcpState::kTimeWait;
        ++timer_generation_;
      }
    }
    update_peer_window(pkt);
  }

  accept_payload(pkt);
  try_send();
}

void TcpEndpoint::accept_payload(const Packet& pkt) {
  const auto len = static_cast<std::uint32_t>(pkt.payload.size());
  const std::uint32_t seg_seq = pkt.tcp.seq;
  bool advanced = false;

  if (len > 0) {
    if (seq_le(seg_seq + len, rcv_nxt_)) {
      // Entirely old data: re-acknowledge.
      send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
    } else if (seq_gt(seg_seq, rcv_nxt_)) {
      // Out of order: stash and send a duplicate ACK.
      out_of_order_[seg_seq] = pkt.payload;
      send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
    } else {
      const std::uint32_t skip = rcv_nxt_ - seg_seq;
      Bytes fresh(pkt.payload.begin() + skip, pkt.payload.end());
      rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
      received_.insert(received_.end(), fresh.begin(), fresh.end());
      if (on_data) on_data(fresh);
      flush_out_of_order();
      advanced = true;
    }
  }

  if (has_flag(pkt.tcp.flags, tcpflag::kFin)) {
    if (seg_seq + len == rcv_nxt_) {
      ++rcv_nxt_;
      advanced = true;
      if (state_ == TcpState::kEstablished) {
        state_ = TcpState::kCloseWait;
      } else if (state_ == TcpState::kFinWait1) {
        state_ = snd_una_ == snd_nxt_ ? TcpState::kTimeWait
                                      : TcpState::kClosing;
      } else if (state_ == TcpState::kFinWait2) {
        state_ = TcpState::kTimeWait;
      }
      if (on_remote_close) on_remote_close();
    }
  }

  if (advanced) {
    send_segment(tcpflag::kAck, snd_nxt_, rcv_nxt_);
  }
}

void TcpEndpoint::flush_out_of_order() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
      const std::uint32_t seg_seq = it->first;
      const auto len = static_cast<std::uint32_t>(it->second.size());
      if (seq_le(seg_seq + len, rcv_nxt_)) {
        it = out_of_order_.erase(it);
        continue;
      }
      if (seq_le(seg_seq, rcv_nxt_)) {
        const std::uint32_t skip = rcv_nxt_ - seg_seq;
        Bytes fresh(it->second.begin() + skip, it->second.end());
        rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
        received_.insert(received_.end(), fresh.begin(), fresh.end());
        if (on_data) on_data(fresh);
        it = out_of_order_.erase(it);
        progressed = true;
        continue;
      }
      ++it;
    }
  }
}

void TcpEndpoint::enter_established() {
  state_ = TcpState::kEstablished;
  retransmit_attempts_ = 0;
  ++timer_generation_;
  timer_armed_ = false;
  if (on_established) on_established();
}

void TcpEndpoint::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1) {
    return;
  }
  const std::uint32_t in_flight = snd_nxt_ - snd_una_;
  const std::uint32_t window = effective_peer_window();
  bool sent = false;

  while (true) {
    const std::uint32_t offset = snd_nxt_ - send_base_seq_;
    if (offset >= send_buffer_.size()) break;
    const std::uint32_t unsent =
        static_cast<std::uint32_t>(send_buffer_.size()) - offset;
    const std::uint32_t in_flight_now = snd_nxt_ - snd_una_;
    if (in_flight_now >= window) break;
    const std::uint32_t allowed = window - in_flight_now;
    const std::uint32_t chunk =
        std::min({unsent, allowed, static_cast<std::uint32_t>(config_.mss)});
    if (chunk == 0) break;
    Bytes payload(send_buffer_.begin() + offset,
                  send_buffer_.begin() + offset + chunk);
    send_segment(tcpflag::kPsh | tcpflag::kAck, snd_nxt_, rcv_nxt_,
                 std::move(payload));
    snd_nxt_ += chunk;
    sent = true;
  }

  // FIN once all data is out.
  if (fin_queued_ && !fin_sent_ &&
      snd_nxt_ - send_base_seq_ >= send_buffer_.size()) {
    send_segment(tcpflag::kFin | tcpflag::kAck, snd_nxt_, rcv_nxt_);
    ++snd_nxt_;
    fin_sent_ = true;
    sent = true;
    state_ = state_ == TcpState::kCloseWait ? TcpState::kLastAck
                                            : TcpState::kFinWait1;
  }

  if ((sent || in_flight > 0) && snd_una_ != snd_nxt_) {
    arm_retransmit_timer();
  }
}

std::uint32_t TcpEndpoint::effective_peer_window() const noexcept {
  const std::uint32_t scaled =
      peer_wscale_enabled_
          ? static_cast<std::uint32_t>(peer_window_) << peer_wscale_shift_
          : peer_window_;
  return std::max<std::uint32_t>(scaled, 1);  // avoid stalling forever
}

void TcpEndpoint::update_peer_window(const Packet& pkt) {
  if (has_flag(pkt.tcp.flags, tcpflag::kSyn)) {
    // Window scale is negotiated on the handshake; the SYN/SYN+ACK window
    // itself is never scaled.
    const auto shift = pkt.tcp.window_scale();
    peer_wscale_enabled_ = shift.has_value() && config_.window_scale.has_value();
    // RFC 7323 §2.3: a shift above 14 is used as 14, so a tampered option
    // cannot shift the 32-bit window by its own width or more.
    peer_wscale_shift_ = std::min<std::uint8_t>(shift.value_or(0), 14);
  }
  peer_window_ = pkt.tcp.window;
}

void TcpEndpoint::send_segment(std::uint8_t flags, std::uint32_t seq,
                               std::uint32_t ack, Bytes payload,
                               bool advertise_options) {
  // The §5 verification hook shifts only data segments (the paper's
  // experiments adjust the sequence number of the forbidden request).
  const std::uint32_t shift =
      payload.empty() ? 0 : static_cast<std::uint32_t>(seq_shift_);
  Packet pkt = make_tcp_packet(config_.local_addr, config_.local_port,
                               config_.remote_addr, config_.remote_port, flags,
                               seq + shift, ack, std::move(payload));
  pkt.ip.ttl = config_.ttl;
  pkt.tcp.window = config_.advertised_window;
  if (advertise_options) {
    pkt.tcp.set_option(TcpOption::kMss,
                       {static_cast<std::uint8_t>(config_.mss >> 8),
                        static_cast<std::uint8_t>(config_.mss & 0xff)});
    if (config_.window_scale) {
      pkt.tcp.set_option(TcpOption::kWindowScale, {*config_.window_scale});
    }
  }
  transmit_(std::move(pkt));
}

void TcpEndpoint::send_rst(std::uint32_t seq, std::uint32_t ack,
                           bool with_ack) {
  const std::uint8_t flags =
      tcpflag::kRst | (with_ack ? tcpflag::kAck : std::uint8_t{0});
  Packet pkt =
      make_tcp_packet(config_.local_addr, config_.local_port,
                      config_.remote_addr, config_.remote_port, flags, seq,
                      with_ack ? ack : 0, {});
  pkt.ip.ttl = config_.ttl;
  transmit_(std::move(pkt));
}

void TcpEndpoint::arm_retransmit_timer() {
  ++timer_generation_;
  timer_armed_ = true;
  const Time delay = config_.rto << std::min(retransmit_attempts_, 6);
  loop_.schedule_in(delay, [this, gen = timer_generation_]() {
    on_retransmit_timer(gen);
  });
}

void TcpEndpoint::on_retransmit_timer(std::uint64_t generation) {
  if (generation != timer_generation_ || !timer_armed_) return;
  timer_armed_ = false;

  const bool handshake_pending =
      state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived;
  const bool data_pending = snd_una_ != snd_nxt_;
  if (!handshake_pending && !data_pending) return;

  if (retransmit_attempts_ >= config_.max_retransmits) {
    fail_connection();
    return;
  }
  ++retransmit_attempts_;
  ++total_retransmits_;
  retransmit_pending();
  arm_retransmit_timer();
}

void TcpEndpoint::retransmit_pending() {
  switch (state_) {
    case TcpState::kSynSent:
      send_segment(tcpflag::kSyn, iss_, 0, {}, /*advertise_options=*/true);
      return;
    case TcpState::kSynReceived:
      send_segment(tcpflag::kSyn | tcpflag::kAck, iss_, rcv_nxt_, {},
                   /*advertise_options=*/true);
      return;
    default:
      break;
  }
  // Retransmit from snd_una_.
  const std::uint32_t offset = snd_una_ - send_base_seq_;
  if (offset < send_buffer_.size()) {
    const std::uint32_t unacked =
        static_cast<std::uint32_t>(send_buffer_.size()) - offset;
    const std::uint32_t chunk =
        std::min(unacked, static_cast<std::uint32_t>(config_.mss));
    Bytes payload(send_buffer_.begin() + offset,
                  send_buffer_.begin() + offset + chunk);
    send_segment(tcpflag::kPsh | tcpflag::kAck, snd_una_, rcv_nxt_,
                 std::move(payload));
  } else if (fin_sent_ && snd_una_ + 1 == snd_nxt_) {
    send_segment(tcpflag::kFin | tcpflag::kAck, snd_una_, rcv_nxt_);
  }
}

void TcpEndpoint::fail_connection() {
  state_ = TcpState::kClosed;
  was_reset_ = true;
  ++timer_generation_;
  timer_armed_ = false;
  if (on_reset) on_reset();
}

}  // namespace caya
