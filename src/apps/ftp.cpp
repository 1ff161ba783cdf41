#include "apps/ftp.h"

#include <string>

namespace caya {

std::optional<std::string_view> LineBuffer::next(
    std::span<const std::uint8_t> stream) {
  // Find the next CRLF past what we've already consumed.
  std::size_t i = consumed_;
  while (i + 1 < stream.size() &&
         !(stream[i] == '\r' && stream[i + 1] == '\n')) {
    ++i;
  }
  if (i + 1 >= stream.size()) return std::nullopt;
  const std::string_view line =
      text_view(stream.subspan(consumed_, i - consumed_));
  consumed_ = i + 2;
  return line;
}

Bytes ftp_retr_command(std::string_view filename) {
  return to_bytes("RETR " + std::string(filename) + "\r\n");
}

FtpServer::FtpServer(EventLoop& loop, Network& net, Ipv4Address addr,
                     std::uint16_t port)
    : conn_(loop,
            {.local_addr = addr, .local_port = port, .isn = 50000},
            [&net](Packet pkt) { net.send_from_server(std::move(pkt)); }) {
  conn_.on_established = [this] {
    conn_.send_data(byte_view("220 caya FTP server ready\r\n"));
  };
  conn_.on_data = [this](const Bytes&) {
    while (const auto line = lines_.next(conn_.received())) on_line(*line);
  };
  conn_.listen();
}

void FtpServer::on_line(std::string_view line) {
  if (line.starts_with("USER")) {
    conn_.send_data(byte_view("331 Please specify the password\r\n"));
  } else if (line.starts_with("PASS")) {
    conn_.send_data(byte_view("230 Login successful\r\n"));
  } else if (line.starts_with("RETR")) {
    retr_seen_ = true;
    conn_.send_data(
        byte_view("150 Opening BINARY mode data connection\r\n"
                  "226 Transfer complete\r\n"));
  } else if (line.starts_with("QUIT")) {
    conn_.send_data(byte_view("221 Goodbye\r\n"));
  } else {
    conn_.send_data(byte_view("500 Unknown command\r\n"));
  }
}

FtpClient::FtpClient(EventLoop& loop, Network& net, ClientAppConfig config,
                     std::span<const std::uint8_t> retr_command)
    : conn_(loop,
            {.local_addr = config.client_addr,
             .local_port = config.client_port,
             .remote_addr = config.server_addr,
             .remote_port = config.server_port,
             .isn = config.isn,
             .os = config.os},
            [&net](Packet pkt) { net.send_from_client(std::move(pkt)); }),
      retr_command_(retr_command) {
  conn_.on_data = [this](const Bytes&) {
    while (const auto line = lines_.next(conn_.received())) on_line(*line);
  };
  conn_.on_reset = [this] { reset_ = true; };
}

void FtpClient::start() { conn_.connect(); }

void FtpClient::on_line(std::string_view line) {
  if (line.starts_with("220")) {
    conn_.send_data(byte_view("USER anonymous\r\n"));
  } else if (line.starts_with("331")) {
    conn_.send_data(byte_view("PASS guest\r\n"));
  } else if (line.starts_with("230")) {
    conn_.send_data(retr_command_);
  } else if (line.starts_with("226")) {
    complete_ = true;
  }
}

}  // namespace caya
