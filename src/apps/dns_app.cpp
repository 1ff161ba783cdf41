#include "apps/dns_app.h"

#include <stdexcept>

#include "util/arena.h"

namespace caya {

TcpEndpoint& EndpointSlots::replace(EventLoop& loop,
                                    TcpEndpoint::Config config,
                                    TransmitFn transmit) {
  if (used_ == kCapacity) {
    throw std::out_of_range("EndpointSlots: every slot is used");
  }
  if (used_ > 0) current().disarm();
  return slots_[used_++].emplace(loop, std::move(config), std::move(transmit));
}

DnsQueries::DnsQueries(std::string_view name) : qname(name) {
  for (std::size_t i = 0; i < by_attempt.size(); ++i) {
    const auto id = static_cast<std::uint16_t>(0x1000 + i + 1);
    by_attempt[i] = build_dns_query({.id = id, .qname = qname});
  }
}

DnsServer::DnsServer(EventLoop& loop, Network& net, Ipv4Address addr,
                     std::uint16_t port, Ipv4Address answer)
    : loop_(loop), net_(net), addr_(addr), port_(port), answer_(answer) {
  make_conn();
}

void DnsServer::make_conn() {
  TcpEndpoint& conn = conns_.replace(
      loop_,
      TcpEndpoint::Config{.local_addr = addr_, .local_port = port_,
                          .isn = 50000},
      [this](Packet pkt) { net_.send_from_server(std::move(pkt)); });
  conn.on_data = [this](const Bytes&) { on_bytes(); };
  conn.listen();
  answered_ = false;
}

void DnsServer::reopen() { make_conn(); }

void DnsServer::deliver(const Packet& pkt) { endpoint().deliver(pkt); }

void DnsServer::on_bytes() {
  if (answered_) return;
  TcpEndpoint& conn = endpoint();
  const auto query = try_parse_dns_qname(conn.received());
  if (!query.ok()) return;  // incomplete query
  answered_ = true;
  // Echo the query ID and name: the first two bytes past the length prefix
  // are the ID. The answer is written into a leased buffer.
  const auto& buf = conn.received();
  const std::uint16_t id =
      static_cast<std::uint16_t>(buf[2] << 8 | buf[3]);
  BufferArena::Scoped response;
  build_dns_response_into(
      *response, {.id = id, .qname = query.value, .address = answer_});
  conn.send_data(*response);
}

DnsClient::DnsClient(EventLoop& loop, Network& net, ClientAppConfig config,
                     const DnsQueries& queries, Ipv4Address expected_answer,
                     int max_tries)
    : loop_(loop),
      net_(net),
      config_(config),
      queries_(queries),
      expected_(expected_answer),
      max_tries_(max_tries) {}

void DnsClient::start() { attempt(); }

void DnsClient::attempt() {
  if (success_ || attempt_ >= max_tries_) {
    gave_up_ = !success_;
    return;
  }
  ++attempt_;
  if (on_new_attempt) on_new_attempt();

  TcpEndpoint& conn = conns_.replace(
      loop_,
      TcpEndpoint::Config{
          .local_addr = config_.client_addr,
          .local_port =
              static_cast<std::uint16_t>(config_.client_port + attempt_),
          .remote_addr = config_.server_addr,
          .remote_port = config_.server_port,
          .isn = config_.isn + static_cast<std::uint32_t>(attempt_) * 10000,
          .os = config_.os},
      [this](Packet pkt) { net_.send_from_client(std::move(pkt)); });
  net_.set_client(this);

  conn.on_established = [this, query = attempt_ - 1] {
    endpoint().send_data(queries_.by_attempt.at(query));
  };
  conn.on_data = [this](const Bytes&) { on_bytes(); };
  conn.on_reset = [this] {
    // RFC 7766: retry unanswered queries when the connection closes early.
    loop_.schedule_in(duration::ms(50), [this] { attempt(); });
  };
  conn.connect();
}

void DnsClient::deliver(const Packet& pkt) {
  if (!conns_.empty()) endpoint().deliver(pkt);
}

void DnsClient::on_bytes() {
  const auto response = parse_dns_response(endpoint().received());
  if (!response) return;
  if (response->qname == queries_.qname && response->address == expected_) {
    success_ = true;
  }
}

}  // namespace caya
