// "HTTPS": a TLS handshake shaped like the real thing — the client sends a
// ClientHello carrying the forbidden hostname in its SNI extension, which is
// the trigger surface for HTTPS censorship in China and Iran (§4.2).
#pragma once

#include <span>

#include "apps/http.h"
#include "apps/tls.h"

namespace caya {

class HttpsServer : public Endpoint {
 public:
  /// Sends `server_hello` (a view; build_server_hello() built once) when a
  /// complete ClientHello has arrived.
  HttpsServer(EventLoop& loop, Network& net, Ipv4Address addr,
              std::uint16_t port, std::span<const std::uint8_t> server_hello);

  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }
  [[nodiscard]] bool hello_seen() const noexcept { return hello_seen_; }

 private:
  void on_bytes();

  TcpEndpoint conn_;
  std::span<const std::uint8_t> server_hello_;
  bool hello_seen_ = false;
};

class HttpsClient : public Endpoint {
 public:
  /// Sends `client_hello` (a view; build_client_hello() built once) and
  /// expects `server_hello` back.
  HttpsClient(EventLoop& loop, Network& net, ClientAppConfig config,
              std::span<const std::uint8_t> client_hello,
              std::span<const std::uint8_t> server_hello);

  void start();
  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }

  /// Success = the full, unaltered ServerHello arrived and the connection
  /// survived.
  [[nodiscard]] bool succeeded() const;
  [[nodiscard]] bool was_reset() const noexcept { return reset_; }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }

 private:
  TcpEndpoint conn_;
  std::span<const std::uint8_t> client_hello_;
  std::span<const std::uint8_t> server_hello_;
  bool reset_ = false;
};

}  // namespace caya
