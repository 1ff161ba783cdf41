#include "apps/http.h"

#include <algorithm>
#include <string>

namespace caya {

HttpMessages::HttpMessages(std::string_view host, std::string_view path,
                           std::string_view body)
    : request(to_bytes("GET " + std::string(path) + " HTTP/1.1\r\nHost: " +
                       std::string(host) +
                       "\r\nUser-Agent: caya/1.0\r\nAccept: */*\r\n\r\n")),
      response(to_bytes("HTTP/1.1 200 OK\r\nContent-Length: " +
                        std::to_string(body.size()) +
                        "\r\nConnection: keep-alive\r\n\r\n" +
                        std::string(body))) {}

HttpServer::HttpServer(EventLoop& loop, Network& net, Ipv4Address addr,
                       std::uint16_t port,
                       std::span<const std::uint8_t> response)
    : conn_(loop,
            {.local_addr = addr, .local_port = port, .isn = 50000},
            [&net](Packet pkt) { net.send_from_server(std::move(pkt)); }),
      response_(response) {
  conn_.on_data = [this](const Bytes&) { on_bytes(); };
  conn_.listen();
}

void HttpServer::on_bytes() {
  if (request_seen_) return;
  if (!contains(conn_.received(), "\r\n\r\n")) return;  // incomplete
  request_seen_ = true;
  conn_.send_data(response_);
}

HttpClient::HttpClient(EventLoop& loop, Network& net, ClientAppConfig config,
                       std::span<const std::uint8_t> request,
                       std::span<const std::uint8_t> expected_response)
    : conn_(loop,
            {.local_addr = config.client_addr,
             .local_port = config.client_port,
             .remote_addr = config.server_addr,
             .remote_port = config.server_port,
             .isn = config.isn,
             .os = config.os},
            [&net](Packet pkt) { net.send_from_client(std::move(pkt)); }),
      request_(request),
      expected_(expected_response) {
  conn_.on_established = [this] { conn_.send_data(request_); };
  conn_.on_reset = [this] { reset_ = true; };
}

void HttpClient::start() { conn_.connect(); }

bool HttpClient::succeeded() const {
  // Paper's criterion: connection not forcibly torn down and the client
  // received the correct, unaltered data.
  return !reset_ && std::ranges::equal(conn_.received(), expected_);
}

}  // namespace caya
