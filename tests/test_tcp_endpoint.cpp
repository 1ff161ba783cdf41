#include "tcpstack/tcp_endpoint.h"

#include <gtest/gtest.h>

#include "netsim/network.h"

namespace caya {
namespace {

const Ipv4Address kClientAddr = Ipv4Address::parse("10.0.0.1");
const Ipv4Address kServerAddr = Ipv4Address::parse("93.184.216.34");

struct Pair {
  EventLoop loop;
  Network net{loop, Network::Config{}, Rng(1)};
  TcpEndpoint client;
  TcpEndpoint server;

  explicit Pair(OsProfile client_os = OsProfile::linux_default())
      : client(loop,
               {.local_addr = kClientAddr,
                .local_port = 3822,
                .remote_addr = kServerAddr,
                .remote_port = 80,
                .isn = 1000,
                .os = client_os},
               [this](Packet p) { net.send_from_client(std::move(p)); }),
        server(loop,
               {.local_addr = kServerAddr,
                .local_port = 80,
                .isn = 5000},
               [this](Packet p) { net.send_from_server(std::move(p)); }) {
    net.set_client(&client);
    net.set_server(&server);
    server.listen();
  }
};

TEST(TcpEndpoint, ThreeWayHandshake) {
  Pair p;
  bool client_up = false;
  bool server_up = false;
  p.client.on_established = [&] { client_up = true; };
  p.server.on_established = [&] { server_up = true; };
  p.client.connect();
  p.loop.run();
  EXPECT_TRUE(client_up);
  EXPECT_TRUE(server_up);
  EXPECT_EQ(p.client.state(), TcpState::kEstablished);
  EXPECT_EQ(p.server.state(), TcpState::kEstablished);
}

TEST(TcpEndpoint, DataBothDirections) {
  Pair p;
  p.client.on_established = [&] {
    p.client.send_data(to_bytes("hello server"));
  };
  p.server.on_data = [&](const Bytes&) {
    if (to_string(p.server.received()) == "hello server") {
      p.server.send_data(to_bytes("hello client"));
    }
  };
  p.client.connect();
  p.loop.run();
  EXPECT_EQ(to_string(p.server.received()), "hello server");
  EXPECT_EQ(to_string(p.client.received()), "hello client");
}

TEST(TcpEndpoint, LargeTransferSegmentsAtMss) {
  Pair p;
  Bytes big(5000, 'x');
  p.client.on_established = [&] { p.client.send_data(big); };
  p.client.connect();
  p.loop.run();
  EXPECT_EQ(p.server.received().size(), 5000u);
  // At MSS 1460 the transfer needs at least 4 data segments.
  std::size_t data_packets = 0;
  for (const auto& ev : p.net.trace().at(TracePoint::kClientSent)) {
    if (!ev.packet.payload.empty()) ++data_packets;
  }
  EXPECT_GE(data_packets, 4u);
}

TEST(TcpEndpoint, SmallWindowForcesSegmentation) {
  // Strategy 8's client-side effect: a 10-byte window with no window scale
  // makes the client segment its request.
  EventLoop loop;
  Network net{loop, Network::Config{}, Rng(1)};
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { net.send_from_client(std::move(p)); });
  TcpEndpoint server(loop,
                     {.local_addr = kServerAddr,
                      .local_port = 80,
                      .isn = 5000,
                      .advertised_window = 10,
                      .window_scale = std::nullopt},
                     [&](Packet p) { net.send_from_server(std::move(p)); });
  net.set_client(&client);
  net.set_server(&server);
  server.listen();

  const std::string request = "GET /?q=ultrasurf HTTP/1.1\r\n\r\n";
  client.on_established = [&] { client.send_data(to_bytes(request)); };
  client.connect();
  loop.run();

  EXPECT_EQ(to_string(server.received()), request);
  // First data segment must be at most 10 bytes.
  for (const auto& ev : net.trace().at(TracePoint::kClientSent)) {
    if (!ev.packet.payload.empty()) {
      EXPECT_LE(ev.packet.payload.size(), 10u);
      break;
    }
  }
  // And the request must have crossed in at least 2 segments.
  std::size_t data_packets = 0;
  for (const auto& ev : net.trace().at(TracePoint::kClientSent)) {
    if (!ev.packet.payload.empty()) ++data_packets;
  }
  EXPECT_GE(data_packets, 2u);
}

TEST(TcpEndpoint, RstWithoutAckIgnoredInSynSent) {
  // Strategy 1's inert RST.
  Pair p;
  p.client.connect();
  p.loop.run_until(duration::ms(7));  // SYN is in flight
  ASSERT_EQ(p.client.state(), TcpState::kSynSent);

  Packet rst = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kRst, 777, 0);
  p.client.deliver(rst);
  EXPECT_EQ(p.client.state(), TcpState::kSynSent);
  p.loop.run();
  EXPECT_EQ(p.client.state(), TcpState::kEstablished);
}

TEST(TcpEndpoint, RstWithValidAckResetsSynSent) {
  Pair p;
  p.client.connect();
  Packet rst = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kRst | tcpflag::kAck, 0, 1001);
  bool reset = false;
  p.client.on_reset = [&] { reset = true; };
  p.client.deliver(rst);
  EXPECT_TRUE(reset);
  EXPECT_EQ(p.client.state(), TcpState::kClosed);
}

TEST(TcpEndpoint, BadAckSynAckInducesRst) {
  // The "induced RST" of Strategies 3/5/6/7: a SYN+ACK with a wrong ack
  // number elicits a RST whose seq equals the bogus ack.
  EventLoop loop;
  std::vector<Packet> sent;
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { sent.push_back(std::move(p)); });
  client.connect();
  sent.clear();

  Packet bad = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kSyn | tcpflag::kAck, 5000, 424242);
  client.deliver(bad);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].tcp.flags, tcpflag::kRst);
  EXPECT_EQ(sent[0].tcp.seq, 424242u);
  EXPECT_EQ(client.state(), TcpState::kSynSent);  // connection not aborted
}

TEST(TcpEndpoint, WindowScaleShiftIsClampedAt14) {
  // RFC 7323 §2.3: a received shift above 14 is used as 14. With a window
  // of 1 the client may have exactly 1 << 14 bytes in flight.
  for (const std::uint8_t wscale : {15, 255}) {
    EventLoop loop;
    std::vector<Packet> sent;
    TcpEndpoint client(loop,
                       {.local_addr = kClientAddr,
                        .local_port = 3822,
                        .remote_addr = kServerAddr,
                        .remote_port = 80,
                        .isn = 1000},
                       [&](Packet p) { sent.push_back(std::move(p)); });
    client.connect();
    Packet synack = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                    tcpflag::kSyn | tcpflag::kAck, 5000, 1001);
    synack.tcp.window = 1;
    synack.tcp.set_option(TcpOption::kWindowScale, Bytes{wscale});
    client.deliver(synack);
    ASSERT_EQ(client.state(), TcpState::kEstablished);
    sent.clear();

    client.send_data(Bytes(40000, 'x'));
    std::size_t in_flight = 0;
    for (const Packet& p : sent) in_flight += p.payload.size();
    EXPECT_EQ(in_flight, std::size_t{1} << 14) << "wscale " << int{wscale};
  }
}

TEST(TcpEndpoint, SuppressInducedRstHookWorks) {
  EventLoop loop;
  std::vector<Packet> sent;
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { sent.push_back(std::move(p)); });
  client.connect();
  sent.clear();
  client.set_suppress_induced_rst(true);
  Packet bad = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kSyn | tcpflag::kAck, 5000, 424242);
  client.deliver(bad);
  EXPECT_TRUE(sent.empty());
}

TEST(TcpEndpoint, SimultaneousOpenRetainsIsnOnSynAck) {
  // RFC 793 simultaneous open: the client's SYN+ACK reuses the ISN; the
  // sequence number advances only with the completing ACK. This off-by-one
  // is the bug Strategies 1-3 exploit in the GFW.
  EventLoop loop;
  std::vector<Packet> sent;
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { sent.push_back(std::move(p)); });
  client.connect();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].tcp.flags, tcpflag::kSyn);
  EXPECT_EQ(sent[0].tcp.seq, 1000u);

  // Server "responds" with a bare SYN -> client enters SYN-RECEIVED and
  // sends SYN+ACK with seq == ISN (not ISN+1).
  Packet syn = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kSyn, 5000, 0);
  client.deliver(syn);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].tcp.flags, tcpflag::kSyn | tcpflag::kAck);
  EXPECT_EQ(sent[1].tcp.seq, 1000u);
  EXPECT_EQ(sent[1].tcp.ack, 5001u);
  EXPECT_EQ(client.state(), TcpState::kSynReceived);

  // Completing ACK from the peer.
  Packet ack = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kAck, 5001, 1001);
  client.deliver(ack);
  EXPECT_EQ(client.state(), TcpState::kEstablished);
}

TEST(TcpEndpoint, FullSimultaneousOpenThroughNetwork) {
  // End-to-end strategy-1 style rendezvous: client connects; server's stack
  // also sent a SYN+ACK but the client saw only a bare SYN (as the engine
  // would produce). We emulate by having the server actively "open" too.
  Pair p;
  p.client.connect();
  p.loop.run_until(duration::ms(1));
  // Deliver a bare SYN to the client while its SYN is in flight.
  Packet syn = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kSyn, 5000, 0);
  p.client.deliver(syn);
  EXPECT_EQ(p.client.state(), TcpState::kSynReceived);
  p.loop.run();
  // Server (in SYN-RECEIVED after the real SYN) accepts the client's
  // SYN+ACK as completing its handshake.
  EXPECT_EQ(p.client.state(), TcpState::kEstablished);
  EXPECT_EQ(p.server.state(), TcpState::kEstablished);
}

TEST(TcpEndpoint, DuplicateSynInSynReceivedIsAckedNotFatal) {
  // Strategy 2: a second SYN carrying a payload is ignored but ACKed.
  EventLoop loop;
  std::vector<Packet> sent;
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { sent.push_back(std::move(p)); });
  client.connect();
  client.deliver(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                 tcpflag::kSyn, 5000, 0));
  sent.clear();
  Packet dup = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kSyn, 5000, 0, to_bytes("garbage"));
  client.deliver(dup);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].tcp.flags, tcpflag::kAck);
  EXPECT_EQ(sent[0].tcp.ack, 5001u);
  EXPECT_TRUE(client.received().empty());
}

TEST(TcpEndpoint, LinuxIgnoresSynAckPayload) {
  Pair p(OsProfile::linux_default());
  // Deliver a SYN+ACK with payload directly (as Strategy 9 would).
  p.client.connect();
  Packet synack = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                  tcpflag::kSyn | tcpflag::kAck, 5000, 1001,
                                  to_bytes("junk"));
  p.client.deliver(synack);
  EXPECT_EQ(p.client.state(), TcpState::kEstablished);
  EXPECT_TRUE(p.client.received().empty());
  EXPECT_EQ(p.client.rcv_nxt(), 5001u);
}

TEST(TcpEndpoint, WindowsAcceptsSynAckPayloadPoisoningStream) {
  Pair p(OsProfile::windows_default());
  p.client.connect();
  Packet synack = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                  tcpflag::kSyn | tcpflag::kAck, 5000, 1001,
                                  to_bytes("junk"));
  p.client.deliver(synack);
  EXPECT_EQ(p.client.state(), TcpState::kEstablished);
  EXPECT_EQ(to_string(p.client.received()), "junk");
  EXPECT_EQ(p.client.rcv_nxt(), 5005u);
  // Genuine data from the server at seq 5001 now looks stale to the client.
  Packet data = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                tcpflag::kPsh | tcpflag::kAck, 5001, 1001,
                                to_bytes("real"));
  p.client.deliver(data);
  EXPECT_EQ(to_string(p.client.received()), "junk");
}

TEST(TcpEndpoint, ChecksumCorruptedPacketDroppedByClient) {
  // The §7 insertion-packet fix depends on clients dropping bad checksums.
  Pair p;
  p.client.connect();
  Packet synack = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                  tcpflag::kSyn | tcpflag::kAck, 5000, 1001,
                                  to_bytes("junk"));
  synack.tcp.checksum = 0x0bad;
  synack.tcp_checksum_overridden = true;
  p.client.deliver(synack);
  EXPECT_EQ(p.client.state(), TcpState::kSynSent);
}

TEST(TcpEndpoint, EstablishedRstInWindowResets) {
  Pair p;
  bool reset = false;
  p.client.on_reset = [&] { reset = true; };
  p.client.connect();
  p.loop.run();
  ASSERT_EQ(p.client.state(), TcpState::kEstablished);
  Packet rst = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kRst, p.client.rcv_nxt(), 0);
  p.client.deliver(rst);
  EXPECT_TRUE(reset);
  EXPECT_EQ(p.client.state(), TcpState::kClosed);
}

TEST(TcpEndpoint, EstablishedRstOutOfWindowIgnored) {
  Pair p;
  p.client.connect();
  p.loop.run();
  Packet rst = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kRst, p.client.rcv_nxt() - 70000, 0);
  p.client.deliver(rst);
  EXPECT_EQ(p.client.state(), TcpState::kEstablished);
}

TEST(TcpEndpoint, RetransmitsLostData) {
  EventLoop loop;
  Network::Config config;
  config.link.client_censor_up.loss = 0.4;
  config.link.censor_server_down.loss = 0.4;
  Network net(loop, config, Rng(42));
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { net.send_from_client(std::move(p)); });
  TcpEndpoint server(loop,
                     {.local_addr = kServerAddr, .local_port = 80, .isn = 5000},
                     [&](Packet p) { net.send_from_server(std::move(p)); });
  net.set_client(&client);
  net.set_server(&server);
  server.listen();
  client.on_established = [&] { client.send_data(to_bytes("important")); };
  client.connect();
  loop.run();
  // With 40% loss the transfer should still complete via retransmission
  // under this seed.
  EXPECT_EQ(to_string(server.received()), "important");
}

TEST(TcpEndpoint, GivesUpAfterMaxRetransmits) {
  EventLoop loop;
  // No network at all: every packet vanishes.
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [](Packet) {});
  bool reset = false;
  client.on_reset = [&] { reset = true; };
  client.connect();
  loop.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(client.state(), TcpState::kClosed);
  EXPECT_GE(client.retransmit_count(), 4u);
}

TEST(TcpEndpoint, GracefulCloseBothSides) {
  Pair p;
  bool server_saw_close = false;
  p.server.on_remote_close = [&] {
    server_saw_close = true;
    p.server.close();
  };
  p.client.on_established = [&] {
    p.client.send_data(to_bytes("bye"));
    p.client.close();
  };
  p.client.connect();
  p.loop.run();
  EXPECT_TRUE(server_saw_close);
  EXPECT_EQ(to_string(p.server.received()), "bye");
  EXPECT_EQ(p.server.state(), TcpState::kClosed);
  EXPECT_TRUE(p.client.state() == TcpState::kTimeWait ||
              p.client.state() == TcpState::kClosed);
}

TEST(TcpEndpoint, OutOfOrderSegmentsReassembled) {
  EventLoop loop;
  std::vector<Packet> sent;
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { sent.push_back(std::move(p)); });
  client.connect();
  client.deliver(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                 tcpflag::kSyn | tcpflag::kAck, 5000, 1001));
  ASSERT_EQ(client.state(), TcpState::kEstablished);
  // Deliver segment 2 before segment 1.
  client.deliver(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                 tcpflag::kPsh | tcpflag::kAck, 5006, 1001,
                                 to_bytes("world")));
  EXPECT_TRUE(client.received().empty());
  client.deliver(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                 tcpflag::kPsh | tcpflag::kAck, 5001, 1001,
                                 to_bytes("hello")));
  EXPECT_EQ(to_string(client.received()), "helloworld");
}

TEST(TcpEndpoint, SeqShiftHookShiftsOutgoingData) {
  EventLoop loop;
  std::vector<Packet> sent;
  TcpEndpoint client(loop,
                     {.local_addr = kClientAddr,
                      .local_port = 3822,
                      .remote_addr = kServerAddr,
                      .remote_port = 80,
                      .isn = 1000},
                     [&](Packet p) { sent.push_back(std::move(p)); });
  client.connect();
  client.deliver(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                 tcpflag::kSyn | tcpflag::kAck, 5000, 1001));
  client.set_seq_shift(-1);
  sent.clear();
  client.send_data(to_bytes("query"));
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0].tcp.seq, 1000u);  // would be 1001 unshifted
}

TEST(TcpEndpoint, IgnoresPacketsForOtherFlows) {
  Pair p;
  p.client.connect();
  p.loop.run();
  const auto state_before = p.client.state();
  // Wrong source port.
  Packet rst = make_tcp_packet(kServerAddr, 8080, kClientAddr, 3822,
                               tcpflag::kRst, p.client.rcv_nxt(), 0);
  p.client.deliver(rst);
  EXPECT_EQ(p.client.state(), state_before);
}

}  // namespace
}  // namespace caya
