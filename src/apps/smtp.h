// SMTP client and server.
//
// China censors SMTP by forbidden recipient address (the paper uses
// xiazai@upup8.com, after fqrouter's GFW documentation); the token rides in
// the RCPT TO command several round-trips into the connection.
#pragma once

#include <span>
#include <string_view>

#include "apps/ftp.h"  // LineBuffer
#include "apps/http.h"  // ClientAppConfig
#include "netsim/network.h"
#include "tcpstack/tcp_endpoint.h"

namespace caya {

/// "RCPT TO:<recipient>\r\n": the command that carries the censored address.
[[nodiscard]] Bytes smtp_rcpt_command(std::string_view recipient);

class SmtpServer : public Endpoint {
 public:
  SmtpServer(EventLoop& loop, Network& net, Ipv4Address addr,
             std::uint16_t port);

  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }
  [[nodiscard]] bool message_accepted() const noexcept { return accepted_; }

 private:
  void on_line(std::string_view line);

  TcpEndpoint conn_;
  LineBuffer lines_;
  bool in_data_ = false;
  bool accepted_ = false;
};

class SmtpClient : public Endpoint {
 public:
  /// Sends `rcpt_command` (a view; see smtp_rcpt_command) as its RCPT TO.
  SmtpClient(EventLoop& loop, Network& net, ClientAppConfig config,
             std::span<const std::uint8_t> rcpt_command);

  void start();
  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }

  /// Success = the message was accepted (final 250) with no teardown.
  [[nodiscard]] bool succeeded() const noexcept { return done_; }
  [[nodiscard]] bool was_reset() const noexcept { return reset_; }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }

 private:
  enum class State {
    kGreeting,
    kHelo,
    kMailFrom,
    kRcptTo,
    kData,
    kBody,
    kDone,
  };
  void on_line(std::string_view line);

  TcpEndpoint conn_;
  LineBuffer lines_;
  std::span<const std::uint8_t> rcpt_command_;
  State state_ = State::kGreeting;
  bool done_ = false;
  bool reset_ = false;
};

}  // namespace caya
