// End-to-end application tests on a censor-free network: every protocol
// pair must complete its dialogue. These validate the substrate the censors
// and strategies are later layered on.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "apps/dns_app.h"
#include "apps/ftp.h"
#include "apps/http.h"
#include "apps/https.h"
#include "apps/smtp.h"

namespace caya {
namespace {

const Ipv4Address kClient = Ipv4Address::parse("10.0.0.2");
const Ipv4Address kServer = Ipv4Address::parse("93.184.216.34");
const DnsQueries queries("www.wikipedia.org");

struct World {
  EventLoop loop;
  Network net{loop, Network::Config{}, Rng(1)};
  ClientAppConfig config;

  World() {
    config.client_addr = kClient;
    config.server_addr = kServer;
  }
};

/// Every line `buf` yields from `stream` now, in order.
std::vector<std::string_view> drain(LineBuffer& buf, const Bytes& stream) {
  std::vector<std::string_view> lines;
  while (const auto line = buf.next(stream)) lines.push_back(*line);
  return lines;
}

TEST(LineBuffer, SplitsCompleteLines) {
  LineBuffer buf;
  Bytes stream = to_bytes("220 hello\r\n331 pass");
  auto lines = drain(buf, stream);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "220 hello");
  // Completing the second line (stream grows) yields only the new line.
  stream = to_bytes("220 hello\r\n331 pass\r\n");
  lines = drain(buf, stream);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "331 pass");
}

TEST(LineBuffer, MultipleLinesAtOnce) {
  LineBuffer buf;
  const Bytes stream = to_bytes("a\r\nb\r\nc\r\n");
  const auto lines = drain(buf, stream);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "c");
}

TEST(LineBuffer, EmptyLine) {
  LineBuffer buf;
  const Bytes stream = to_bytes("\r\nx\r\n");
  const auto lines = drain(buf, stream);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "");
}

TEST(Apps, HttpRequestResponse) {
  World w;
  const HttpMessages messages("example.com", "/index.html", "<html>hi</html>");
  HttpServer server(w.loop, w.net, kServer, 80, messages.response);
  w.config.server_port = 80;
  HttpClient client(w.loop, w.net, w.config, messages.request,
                    messages.response);
  w.net.set_server(&server);
  w.net.set_client(&client);
  client.start();
  w.loop.run();
  EXPECT_TRUE(server.request_seen());
  EXPECT_TRUE(client.succeeded());
  EXPECT_FALSE(client.was_reset());
}

TEST(Apps, HttpWrongBodyIsNotSuccess) {
  World w;
  const HttpMessages messages("example.com", "/", "actual body");
  HttpServer server(w.loop, w.net, kServer, 80, messages.response);
  w.config.server_port = 80;
  HttpClient client(w.loop, w.net, w.config, messages.request,
                    byte_view("some other expected response"));
  w.net.set_server(&server);
  w.net.set_client(&client);
  client.start();
  w.loop.run();
  EXPECT_FALSE(client.succeeded());
}

TEST(Apps, HttpRequestCarriesHostAndPath) {
  const HttpMessages messages("blocked-site.kz", "/?q=ultrasurf", "x");
  const std::string request = to_string(messages.request);
  EXPECT_NE(request.find("GET /?q=ultrasurf HTTP/1.1"), std::string::npos);
  EXPECT_NE(request.find("Host: blocked-site.kz"), std::string::npos);
}

TEST(Apps, HttpsHandshakeCompletes) {
  World w;
  const Bytes client_hello = build_client_hello("www.wikipedia.org");
  const Bytes server_hello = build_server_hello();
  HttpsServer server(w.loop, w.net, kServer, 443, server_hello);
  w.config.server_port = 443;
  HttpsClient client(w.loop, w.net, w.config, client_hello, server_hello);
  w.net.set_server(&server);
  w.net.set_client(&client);
  client.start();
  w.loop.run();
  EXPECT_TRUE(server.hello_seen());
  EXPECT_TRUE(client.succeeded());
}

TEST(Apps, DnsQueryResolves) {
  World w;
  const Ipv4Address answer = Ipv4Address::parse("198.51.100.7");
  DnsServer server(w.loop, w.net, kServer, 53, answer);
  w.config.server_port = 53;
  DnsClient client(w.loop, w.net, w.config, queries, answer);
  client.on_new_attempt = [&server] { server.reopen(); };
  w.net.set_server(&server);
  client.start();
  w.loop.run();
  EXPECT_TRUE(client.succeeded());
  EXPECT_EQ(client.tries_used(), 1);
}

TEST(Apps, DnsRetriesAfterMidConnectionReset) {
  World w;
  const Ipv4Address answer = Ipv4Address::parse("198.51.100.7");
  DnsServer server(w.loop, w.net, kServer, 53, answer);
  w.config.server_port = 53;
  DnsClient client(w.loop, w.net, w.config, queries, answer);
  client.on_new_attempt = [&server] { server.reopen(); };
  w.net.set_server(&server);
  client.start();
  // Kill the first connection with an in-window RST once it's up
  // (handshake completes at ~40ms over the 10-hop path; the response
  // arrives at ~80ms).
  w.loop.run_until(duration::ms(45));
  ASSERT_EQ(client.endpoint().state(), TcpState::kEstablished);
  Packet rst = make_tcp_packet(kServer, 53, kClient,
                               client.endpoint().config().local_port,
                               tcpflag::kRst, client.endpoint().rcv_nxt(), 0);
  client.deliver(rst);
  w.loop.run();
  EXPECT_TRUE(client.succeeded());
  EXPECT_GE(client.tries_used(), 2);
}

TEST(Apps, DnsRetryLeavesReplacedEndpointsSilent) {
  // The first SYN+ACK is lost, so when the client's first attempt is reset
  // the server's SYN+ACK retransmit timer is still armed, and it is due
  // long after the retry has replaced both first-attempt endpoints.
  EventLoop loop;
  Network::Config net_config;
  net_config.link.client_censor_down.flaps.push_back({0, duration::ms(60)});
  Network net(loop, net_config, Rng(1));
  ClientAppConfig config;
  config.client_addr = kClient;
  config.server_addr = kServer;
  config.server_port = 53;
  const Ipv4Address answer = Ipv4Address::parse("198.51.100.7");
  DnsServer server(loop, net, kServer, 53, answer);
  DnsClient client(loop, net, config, queries, answer);
  Time retry_at = 0;
  client.on_new_attempt = [&] {
    if (client.tries_used() == 2) retry_at = loop.now();
    server.reopen();
  };
  net.set_server(&server);
  client.start();
  loop.run_until(duration::ms(40));
  ASSERT_EQ(client.endpoint().state(), TcpState::kSynSent);
  ASSERT_EQ(server.endpoint().state(), TcpState::kSynReceived);
  client.deliver(make_tcp_packet(kServer, 53, kClient,
                                 client.endpoint().config().local_port,
                                 tcpflag::kRst | tcpflag::kAck, 0,
                                 client.endpoint().snd_nxt()));
  loop.run();
  EXPECT_TRUE(client.succeeded());
  EXPECT_EQ(client.tries_used(), 2);
  ASSERT_GT(retry_at, 0u);
  // The first attempt used client port client_port + 1; nothing may be
  // sent from or to it once the retry has started.
  const auto first_port = static_cast<std::uint16_t>(config.client_port + 1);
  for (const TraceEvent& event : net.trace().events()) {
    if (event.at < retry_at) continue;
    if (event.point == TracePoint::kClientSent) {
      EXPECT_NE(event.packet.tcp.sport, first_port) << event.at;
    }
    if (event.point == TracePoint::kServerSent) {
      EXPECT_NE(event.packet.tcp.dport, first_port) << event.at;
    }
  }
}

TEST(Apps, DnsGivesUpAfterMaxTries) {
  World w;
  // No server attached at all: every attempt times out and resets.
  DnsClient client(w.loop, w.net, w.config, queries,
                   Ipv4Address::parse("198.51.100.7"), /*max_tries=*/3);
  client.start();
  w.loop.run();
  EXPECT_FALSE(client.succeeded());
  EXPECT_EQ(client.tries_used(), 3);
}

TEST(Apps, FtpDialogueCompletes) {
  World w;
  FtpServer server(w.loop, w.net, kServer, 21);
  w.config.server_port = 21;
  const Bytes retr = ftp_retr_command("ultrasurf");
  FtpClient client(w.loop, w.net, w.config, retr);
  w.net.set_server(&server);
  w.net.set_client(&client);
  client.start();
  w.loop.run();
  EXPECT_TRUE(server.retr_seen());
  EXPECT_TRUE(client.succeeded());
}

TEST(Apps, SmtpDialogueCompletes) {
  World w;
  SmtpServer server(w.loop, w.net, kServer, 25);
  w.config.server_port = 25;
  const Bytes rcpt = smtp_rcpt_command("xiazai@upup8.com");
  SmtpClient client(w.loop, w.net, w.config, rcpt);
  w.net.set_server(&server);
  w.net.set_client(&client);
  client.start();
  w.loop.run();
  EXPECT_TRUE(server.message_accepted());
  EXPECT_TRUE(client.succeeded());
}

TEST(Apps, AllProtocolsSurviveLossyLink) {
  // Retransmission keeps every dialogue alive at 20% loss.
  EventLoop loop;
  Network::Config net_config;
  net_config.link.client_censor_up.loss = 0.2;
  net_config.link.censor_server_down.loss = 0.2;
  Network net(loop, net_config, Rng(33));
  ClientAppConfig config;
  config.client_addr = kClient;
  config.server_addr = kServer;
  config.server_port = 25;
  SmtpServer server(loop, net, kServer, 25);
  const Bytes rcpt = smtp_rcpt_command("someone@example.com");
  SmtpClient client(loop, net, config, rcpt);
  net.set_server(&server);
  net.set_client(&client);
  client.start();
  loop.run();
  EXPECT_TRUE(client.succeeded());
}

}  // namespace
}  // namespace caya
