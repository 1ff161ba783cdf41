// A TCP endpoint state machine faithful to the behaviours the paper's
// server-side strategies depend on:
//
//   * RFC 793 simultaneous open (a SYN received in SYN-SENT moves the client
//     to SYN-RECEIVED and elicits a SYN+ACK that *retains* the ISN — the
//     sequence number only advances on the final ACK, which is the off-by-one
//     the GFW's resynchronization state mishandles).
//   * A RST without ACK in SYN-SENT is ignored (Strategy 1's inert RST).
//   * A SYN+ACK with a wrong acknowledgment number in SYN-SENT elicits a RST
//     whose sequence number equals the bogus ack (RFC 793's reset rule) —
//     the "induced RST" of Strategies 3, 5, 6, and 7.
//   * Send-window honoring: a small advertised window with no window-scale
//     option forces the sender to segment its request (Strategy 8 / brdgrd).
//   * Per-OS SYN+ACK-payload handling (see OsProfile).
//   * TCP checksum verification on receive (censors' missing verification is
//     what enables insertion packets).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "netsim/endpoint.h"
#include "netsim/event_loop.h"
#include "packet/packet.h"
#include "tcpstack/os_profile.h"
#include "util/bytes.h"
#include "util/segment_map.h"

namespace caya {

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

[[nodiscard]] std::string_view to_string(TcpState state) noexcept;

class TcpEndpoint : public Endpoint {
 public:
  struct Config {
    Ipv4Address local_addr;
    std::uint16_t local_port = 0;
    Ipv4Address remote_addr;      // required for active open; learned on
    std::uint16_t remote_port = 0;  // passive open
    std::uint32_t isn = 1000;
    OsProfile os = OsProfile::linux_default();
    std::uint8_t ttl = 64;
    std::uint16_t advertised_window = 65535;
    std::optional<std::uint8_t> window_scale = 7;  // offered in SYN/SYN+ACK
    Time rto = duration::ms(300);
    int max_retransmits = 4;
  };

  /// Leases the send and receive buffers from this thread's BufferArena;
  /// the destructor returns them.
  TcpEndpoint(EventLoop& loop, Config config, TransmitFn transmit);
  ~TcpEndpoint() override;
  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// Active open: sends a SYN.
  void connect();
  /// Passive open: waits for a SYN.
  void listen();
  /// Queues a copy of application data; transmits as the send window
  /// allows. The caller keeps ownership of `data`.
  void send_data(std::span<const std::uint8_t> data);
  /// Graceful close: FIN after all queued data.
  void close();
  /// Hard close: sends a RST and goes to CLOSED.
  void abort();
  /// Cancels the retransmit timer without sending anything. Its callback
  /// may still be queued on the loop, so the endpoint must outlive it.
  void disarm() noexcept {
    ++timer_generation_;
    timer_armed_ = false;
  }

  // ---- Callbacks to the application layer ----
  std::function<void()> on_established;
  /// Newly in-order bytes, in a buffer leased for the call.
  std::function<void(const Bytes&)> on_data;
  std::function<void()> on_remote_close;        // FIN received
  std::function<void()> on_reset;               // connection reset / gave up

  // ---- Endpoint interface ----
  void deliver(const Packet& pkt) override;

  // ---- Introspection (tests, evaluation harness) ----
  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] const Bytes& received() const noexcept { return received_; }
  [[nodiscard]] std::uint32_t snd_nxt() const noexcept { return snd_nxt_; }
  [[nodiscard]] std::uint32_t rcv_nxt() const noexcept { return rcv_nxt_; }
  [[nodiscard]] bool was_reset() const noexcept { return was_reset_; }
  [[nodiscard]] std::size_t retransmit_count() const noexcept {
    return total_retransmits_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Testing hook (§5 follow-up experiments): shifts the sequence number of
  /// every subsequent outgoing data segment by `delta` without telling the
  /// peer — e.g. -1 reproduces the paper's desync-by-one verification.
  void set_seq_shift(std::int32_t delta) noexcept { seq_shift_ = delta; }

  /// Testing hook: when true, incoming packets that would induce a RST are
  /// processed but the RST is not sent (the paper's "instrument the client to
  /// drop this induced RST" experiments for Strategies 5 and 6).
  void set_suppress_induced_rst(bool v) noexcept { suppress_induced_rst_ = v; }

 private:
  void send_segment(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                    std::span<const std::uint8_t> payload = {},
                    bool advertise_options = false);
  void send_rst(std::uint32_t seq, std::uint32_t ack, bool with_ack);
  void enter_established();
  void handle_listen(const Packet& pkt);
  void handle_syn_sent(const Packet& pkt);
  void handle_syn_received(const Packet& pkt);
  void handle_synchronized(const Packet& pkt);
  void accept_payload(const Packet& pkt);
  /// Appends `fresh` to the stream and hands it to on_data.
  void deliver_in_order(std::span<const std::uint8_t> fresh);
  void flush_out_of_order();
  void try_send();
  void arm_retransmit_timer();
  void on_retransmit_timer(std::uint64_t generation);
  void retransmit_pending();
  void update_peer_window(const Packet& pkt);
  [[nodiscard]] std::uint32_t effective_peer_window() const noexcept;
  [[nodiscard]] bool packet_matches_flow(const Packet& pkt) const noexcept;
  void fail_connection();

  EventLoop& loop_;
  Config config_;
  TransmitFn transmit_;
  TcpState state_ = TcpState::kClosed;

  // Send state. send_buffer_ (leased) holds every application byte not yet
  // acknowledged (sent and unsent alike); send_base_seq_ is the sequence
  // number of send_buffer_[0].
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  Bytes send_buffer_;
  std::uint32_t send_base_seq_ = 0;
  std::uint16_t peer_window_ = 65535;
  std::uint8_t peer_wscale_shift_ = 0;
  bool peer_wscale_enabled_ = false;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::int32_t seq_shift_ = 0;

  // Receive state.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  Bytes received_;              // leased
  SegmentMap out_of_order_;     // seq -> bytes past rcv_nxt_

  // Timers.
  std::uint64_t timer_generation_ = 0;
  int retransmit_attempts_ = 0;
  std::size_t total_retransmits_ = 0;
  bool timer_armed_ = false;

  bool was_reset_ = false;
  bool suppress_induced_rst_ = false;
};

}  // namespace caya
