// FTP control-channel client and server.
//
// The censored token rides in the RETR command's filename (the paper signs
// into FTP servers and requests files named after sensitive keywords). The
// multi-round-trip dialogue means the forbidden bytes cross the censor well
// after the handshake — which is why GFW resynchronization-state bugs show
// up so differently for FTP than for HTTP.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "apps/http.h"  // ClientAppConfig
#include "netsim/network.h"
#include "tcpstack/tcp_endpoint.h"

namespace caya {

/// Splits complete CRLF-terminated lines out of an accumulating stream.
class LineBuffer {
 public:
  /// Given the total stream seen so far, the next complete line not yet
  /// returned, without its CRLF and viewed in place in `stream`; nullopt
  /// until another line is complete.
  std::optional<std::string_view> next(std::span<const std::uint8_t> stream);

 private:
  std::size_t consumed_ = 0;
};

/// "RETR <filename>\r\n": the command that carries the censored keyword.
[[nodiscard]] Bytes ftp_retr_command(std::string_view filename);

class FtpServer : public Endpoint {
 public:
  FtpServer(EventLoop& loop, Network& net, Ipv4Address addr,
            std::uint16_t port);

  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }
  [[nodiscard]] bool retr_seen() const noexcept { return retr_seen_; }

 private:
  void on_line(std::string_view line);

  TcpEndpoint conn_;
  LineBuffer lines_;
  bool retr_seen_ = false;
};

class FtpClient : public Endpoint {
 public:
  /// Logs in anonymously and sends `retr_command` (a view; see
  /// ftp_retr_command), whose filename carries the censored keyword.
  FtpClient(EventLoop& loop, Network& net, ClientAppConfig config,
            std::span<const std::uint8_t> retr_command);

  void start();
  void deliver(const Packet& pkt) override { conn_.deliver(pkt); }

  /// Success = the transfer-complete reply (226) arrived un-tampered.
  [[nodiscard]] bool succeeded() const noexcept { return complete_; }
  [[nodiscard]] bool was_reset() const noexcept { return reset_; }
  [[nodiscard]] TcpEndpoint& endpoint() noexcept { return conn_; }

 private:
  void on_line(std::string_view line);

  TcpEndpoint conn_;
  LineBuffer lines_;
  std::span<const std::uint8_t> retr_command_;
  bool complete_ = false;
  bool reset_ = false;
};

}  // namespace caya
