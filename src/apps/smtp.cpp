#include "apps/smtp.h"

#include <string>

namespace caya {

Bytes smtp_rcpt_command(std::string_view recipient) {
  return to_bytes("RCPT TO:<" + std::string(recipient) + ">\r\n");
}

SmtpServer::SmtpServer(EventLoop& loop, Network& net, Ipv4Address addr,
                       std::uint16_t port)
    : conn_(loop,
            {.local_addr = addr, .local_port = port, .isn = 50000},
            [&net](Packet pkt) { net.send_from_server(std::move(pkt)); }) {
  conn_.on_established = [this] {
    conn_.send_data(byte_view("220 mail.example.com ESMTP caya\r\n"));
  };
  conn_.on_data = [this](const Bytes&) {
    while (const auto line = lines_.next(conn_.received())) on_line(*line);
  };
  conn_.listen();
}

void SmtpServer::on_line(std::string_view line) {
  if (in_data_) {
    if (line == ".") {
      in_data_ = false;
      accepted_ = true;
      conn_.send_data(byte_view("250 OK: queued\r\n"));
    }
    return;
  }
  if (line.starts_with("HELO") || line.starts_with("EHLO")) {
    conn_.send_data(byte_view("250 mail.example.com\r\n"));
  } else if (line.starts_with("MAIL FROM:")) {
    conn_.send_data(byte_view("250 sender OK\r\n"));
  } else if (line.starts_with("RCPT TO:")) {
    conn_.send_data(byte_view("250 recipient OK\r\n"));
  } else if (line.starts_with("DATA")) {
    in_data_ = true;
    conn_.send_data(byte_view("354 End data with <CR><LF>.<CR><LF>\r\n"));
  } else if (line.starts_with("QUIT")) {
    conn_.send_data(byte_view("221 Bye\r\n"));
  } else {
    conn_.send_data(byte_view("502 Command not implemented\r\n"));
  }
}

SmtpClient::SmtpClient(EventLoop& loop, Network& net, ClientAppConfig config,
                       std::span<const std::uint8_t> rcpt_command)
    : conn_(loop,
            {.local_addr = config.client_addr,
             .local_port = config.client_port,
             .remote_addr = config.server_addr,
             .remote_port = config.server_port,
             .isn = config.isn,
             .os = config.os},
            [&net](Packet pkt) { net.send_from_client(std::move(pkt)); }),
      rcpt_command_(rcpt_command) {
  conn_.on_data = [this](const Bytes&) {
    while (const auto line = lines_.next(conn_.received())) on_line(*line);
  };
  conn_.on_reset = [this] { reset_ = true; };
}

void SmtpClient::start() { conn_.connect(); }

void SmtpClient::on_line(std::string_view line) {
  switch (state_) {
    case State::kGreeting:
      if (line.starts_with("220")) {
        conn_.send_data(byte_view("HELO client.example\r\n"));
        state_ = State::kHelo;
      }
      return;
    case State::kHelo:
      if (line.starts_with("250")) {
        conn_.send_data(byte_view("MAIL FROM:<user@example.com>\r\n"));
        state_ = State::kMailFrom;
      }
      return;
    case State::kMailFrom:
      if (line.starts_with("250")) {
        conn_.send_data(rcpt_command_);
        state_ = State::kRcptTo;
      }
      return;
    case State::kRcptTo:
      if (line.starts_with("250")) {
        conn_.send_data(byte_view("DATA\r\n"));
        state_ = State::kData;
      }
      return;
    case State::kData:
      if (line.starts_with("354")) {
        conn_.send_data(byte_view("Subject: hello\r\n\r\nhi there\r\n.\r\n"));
        state_ = State::kBody;
      }
      return;
    case State::kBody:
      if (line.starts_with("250")) {
        done_ = true;
        state_ = State::kDone;
      }
      return;
    case State::kDone:
      return;
  }
}

}  // namespace caya
