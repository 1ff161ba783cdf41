#include "apps/https.h"

#include <algorithm>

namespace caya {

HttpsServer::HttpsServer(EventLoop& loop, Network& net, Ipv4Address addr,
                         std::uint16_t port,
                         std::span<const std::uint8_t> server_hello)
    : conn_(loop,
            {.local_addr = addr, .local_port = port, .isn = 50000},
            [&net](Packet pkt) { net.send_from_server(std::move(pkt)); }),
      server_hello_(server_hello) {
  conn_.on_data = [this](const Bytes&) { on_bytes(); };
  conn_.listen();
}

void HttpsServer::on_bytes() {
  if (hello_seen_) return;
  if (!parse_sni(conn_.received())) return;  // incomplete hello
  hello_seen_ = true;
  conn_.send_data(server_hello_);
}

HttpsClient::HttpsClient(EventLoop& loop, Network& net,
                         ClientAppConfig config,
                         std::span<const std::uint8_t> client_hello,
                         std::span<const std::uint8_t> server_hello)
    : conn_(loop,
            {.local_addr = config.client_addr,
             .local_port = config.client_port,
             .remote_addr = config.server_addr,
             .remote_port = config.server_port,
             .isn = config.isn,
             .os = config.os},
            [&net](Packet pkt) { net.send_from_client(std::move(pkt)); }),
      client_hello_(client_hello),
      server_hello_(server_hello) {
  conn_.on_established = [this] { conn_.send_data(client_hello_); };
  conn_.on_reset = [this] { reset_ = true; };
}

void HttpsClient::start() { conn_.connect(); }

bool HttpsClient::succeeded() const {
  return !reset_ && std::ranges::equal(conn_.received(), server_hello_);
}

}  // namespace caya
