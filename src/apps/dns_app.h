// DNS-over-TCP resolver client and server.
//
// The client implements RFC 7766's retry guidance: a connection closed
// before the response arrives is retried on a fresh connection, up to
// `max_tries` total (3, matching the paper's evaluation convention; at most
// 5, which EndpointSlots holds on the server side). This
// retry amplification is why China's per-try ~50% strategies reach ~87%+
// for DNS in Table 2.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "packet/dns.h"
#include "apps/http.h"  // ClientAppConfig
#include "netsim/network.h"
#include "tcpstack/tcp_endpoint.h"

namespace caya {

/// The TCP endpoints one app has made, newest current, held by value. A
/// replaced endpoint is disarmed but kept alive: its retransmit callback may
/// still be queued on the loop, and the harness clears the loop before it
/// destroys the app. The fixed capacity keeps that free of allocation.
class EndpointSlots {
 public:
  /// The server's first connection plus one per retry of a 5-try client.
  static constexpr std::size_t kCapacity = 6;

  /// Disarms the current endpoint and makes a new one, built from these
  /// arguments, current. Throws std::out_of_range when all slots are used.
  TcpEndpoint& replace(EventLoop& loop, TcpEndpoint::Config config,
                       TransmitFn transmit);
  [[nodiscard]] bool empty() const noexcept { return used_ == 0; }
  [[nodiscard]] TcpEndpoint& current() noexcept { return *slots_[used_ - 1]; }

 private:
  std::array<std::optional<TcpEndpoint>, kCapacity> slots_;
  std::size_t used_ = 0;
};

/// A client's queries for one name, one per attempt its slots allow:
/// attempt k sends ID 0x1000 + k. Built once, then handed out as views.
struct DnsQueries {
  explicit DnsQueries(std::string_view qname);

  std::string qname;
  std::array<Bytes, EndpointSlots::kCapacity> by_attempt;
};

class DnsServer : public Endpoint {
 public:
  DnsServer(EventLoop& loop, Network& net, Ipv4Address addr,
            std::uint16_t port, Ipv4Address answer);

  void deliver(const Packet& pkt) override;
  /// Resets the per-connection TCP state so a retrying client can reconnect.
  void reopen();
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conns_.current(); }

 private:
  void on_bytes();
  void make_conn();

  EventLoop& loop_;
  Network& net_;
  Ipv4Address addr_;
  std::uint16_t port_;
  Ipv4Address answer_;
  EndpointSlots conns_;
  bool answered_ = false;
};

class DnsClient : public Endpoint {
 public:
  /// Sends `queries` (which must outlive the client) one attempt at a time.
  DnsClient(EventLoop& loop, Network& net, ClientAppConfig config,
            const DnsQueries& queries, Ipv4Address expected_answer,
            int max_tries = 3);

  void start();
  void deliver(const Packet& pkt) override;

  [[nodiscard]] bool succeeded() const noexcept { return success_; }
  [[nodiscard]] int tries_used() const noexcept { return attempt_; }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conns_.current(); }

  /// Invoked when a new attempt starts (lets the harness reset server-side
  /// per-connection state, as a real server's accept() would).
  std::function<void()> on_new_attempt;

 private:
  void attempt();
  void on_bytes();

  EventLoop& loop_;
  Network& net_;
  ClientAppConfig config_;
  const DnsQueries& queries_;
  Ipv4Address expected_;
  int max_tries_;
  int attempt_ = 0;
  bool success_ = false;
  bool gave_up_ = false;
  EndpointSlots conns_;
};

}  // namespace caya
