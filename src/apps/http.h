// Minimal HTTP/1.1 client and server.
//
// The client issues a GET whose URL or Host header carries the censored
// token (the paper's §4.2 trigger configuration); success requires receiving
// the server's exact response — an injected block page or a torn-down
// connection both count as censorship.
#pragma once

#include <span>
#include <string_view>

#include "netsim/network.h"
#include "tcpstack/tcp_endpoint.h"

namespace caya {

/// Endpoint placement shared by all client apps.
struct ClientAppConfig {
  Ipv4Address client_addr = Ipv4Address(10, 0, 0, 2);
  Ipv4Address server_addr = Ipv4Address(93, 184, 216, 34);
  std::uint16_t client_port = 40000;
  std::uint16_t server_port = 80;
  OsProfile os = OsProfile::linux_default();
  std::uint32_t isn = 1000;
};

/// The two messages of one HTTP exchange. Built once, then handed to the
/// client and server as views: the apps keep no copy, so the messages must
/// outlive them.
struct HttpMessages {
  /// `path` may carry the censored keyword ("/?q=ultrasurf"); `host` is the
  /// Host header (the trigger in India/Iran/Kazakhstan).
  HttpMessages(std::string_view host, std::string_view path,
               std::string_view body);

  Bytes request;   // the GET
  Bytes response;  // 200 OK carrying the body
};

class HttpServer : public Endpoint {
 public:
  /// Sends `response` once a request's headers are complete.
  HttpServer(EventLoop& loop, Network& net, Ipv4Address addr,
             std::uint16_t port, std::span<const std::uint8_t> response);

  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }
  [[nodiscard]] bool request_seen() const noexcept { return request_seen_; }

 private:
  void on_bytes();

  TcpEndpoint conn_;
  std::span<const std::uint8_t> response_;
  bool request_seen_ = false;
};

class HttpClient : public Endpoint {
 public:
  /// Sends `request` once connected; succeeds on receiving exactly
  /// `expected_response`.
  HttpClient(EventLoop& loop, Network& net, ClientAppConfig config,
             std::span<const std::uint8_t> request,
             std::span<const std::uint8_t> expected_response);

  void start();
  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }

  [[nodiscard]] bool succeeded() const;
  [[nodiscard]] bool was_reset() const noexcept { return reset_; }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }

 private:
  TcpEndpoint conn_;
  std::span<const std::uint8_t> request_;
  std::span<const std::uint8_t> expected_;
  bool reset_ = false;
};

}  // namespace caya
