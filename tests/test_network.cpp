#include "netsim/network.h"

#include <gtest/gtest.h>

#include "util/bytes.h"

namespace caya {
namespace {

const Ipv4Address kClientAddr = Ipv4Address::parse("10.0.0.1");
const Ipv4Address kServerAddr = Ipv4Address::parse("93.184.216.34");

class RecordingEndpoint : public Endpoint {
 public:
  void deliver(const Packet& pkt) override { received.push_back(pkt); }
  std::vector<Packet> received;
};

class RecordingMiddlebox : public Middlebox {
 public:
  Verdict on_packet(const Packet& pkt, Direction dir, Injector&) override {
    seen.push_back({pkt, dir});
    return drop_everything ? Verdict::kDrop : Verdict::kPass;
  }
  bool in_path() const noexcept override { return in_path_flag; }

  std::vector<std::pair<Packet, Direction>> seen;
  bool drop_everything = false;
  bool in_path_flag = false;
};

Packet client_packet(std::uint8_t ttl = 64) {
  Packet pkt = make_tcp_packet(kClientAddr, 3822, kServerAddr, 80,
                               tcpflag::kSyn, 100, 0);
  pkt.ip.ttl = ttl;
  return pkt;
}

struct Fixture {
  EventLoop loop;
  Network net{loop, Network::Config{}, Rng(1)};
  RecordingEndpoint client;
  RecordingEndpoint server;

  Fixture() {
    net.set_client(&client);
    net.set_server(&server);
  }
};

TEST(Network, DeliversClientToServer) {
  Fixture f;
  f.net.send_from_client(client_packet());
  f.loop.run();
  ASSERT_EQ(f.server.received.size(), 1u);
  EXPECT_EQ(f.server.received[0].tcp.dport, 80);
}

TEST(Network, DeliveryTakesPerHopDelay) {
  Fixture f;
  f.net.send_from_client(client_packet());
  f.loop.run();
  // 10 hops at 2ms/hop.
  EXPECT_EQ(f.loop.now(), duration::ms(20));
}

TEST(Network, MiddleboxSeesBothDirections) {
  Fixture f;
  RecordingMiddlebox box;
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet());
  f.net.send_from_server(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                         tcpflag::kSyn | tcpflag::kAck, 500,
                                         101));
  f.loop.run();
  ASSERT_EQ(box.seen.size(), 2u);
  EXPECT_EQ(box.seen[0].second, Direction::kClientToServer);
  EXPECT_EQ(box.seen[1].second, Direction::kServerToClient);
}

TEST(Network, OnPathBoxCannotDrop) {
  Fixture f;
  RecordingMiddlebox box;
  box.drop_everything = true;
  box.in_path_flag = false;  // on-path (man-on-the-side)
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet());
  f.loop.run();
  EXPECT_EQ(f.server.received.size(), 1u);
}

TEST(Network, InPathBoxCanDrop) {
  Fixture f;
  RecordingMiddlebox box;
  box.drop_everything = true;
  box.in_path_flag = true;
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet());
  f.loop.run();
  EXPECT_TRUE(f.server.received.empty());
  EXPECT_EQ(f.net.trace().at(TracePoint::kCensorDropped).size(), 1u);
}

TEST(Network, TtlLimitedPacketReachesCensorNotServer) {
  // The insertion-packet primitive: TTL large enough for the censor
  // (hop 3) but too small for the server (hop 10).
  Fixture f;
  RecordingMiddlebox box;
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet(/*ttl=*/5));
  f.loop.run();
  EXPECT_EQ(box.seen.size(), 1u);
  EXPECT_TRUE(f.server.received.empty());
}

TEST(Network, TtlTooSmallForCensorSeenByNobody) {
  Fixture f;
  RecordingMiddlebox box;
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet(/*ttl=*/2));
  f.loop.run();
  EXPECT_TRUE(box.seen.empty());
  EXPECT_TRUE(f.server.received.empty());
}

TEST(Network, InjectionTowardClientSkipsServer) {
  Fixture f;
  RecordingMiddlebox box;
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet());
  f.loop.run();

  Packet rst = make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                               tcpflag::kRst, 500, 0);
  f.net.inject(rst, Direction::kServerToClient);
  f.loop.run();
  ASSERT_EQ(f.client.received.size(), 1u);
  EXPECT_EQ(f.client.received[0].tcp.flags, tcpflag::kRst);
  EXPECT_EQ(f.server.received.size(), 1u);  // unchanged
}

TEST(Network, MultipleColocatedBoxesAllSeePackets) {
  Fixture f;
  RecordingMiddlebox a;
  RecordingMiddlebox b;
  f.net.add_middlebox(&a);
  f.net.add_middlebox(&b);
  f.net.send_from_client(client_packet());
  f.loop.run();
  EXPECT_EQ(a.seen.size(), 1u);
  EXPECT_EQ(b.seen.size(), 1u);
}

class DuplicatingProcessor : public PacketProcessor {
 public:
  void process_outbound_into(Packet pkt, std::vector<Packet>& out) override {
    out.push_back(pkt);
    out.push_back(std::move(pkt));
  }
  void process_inbound_into(Packet pkt, std::vector<Packet>& out) override {
    out.push_back(std::move(pkt));
  }
};

TEST(Network, OutboundProcessorCanDuplicate) {
  Fixture f;
  DuplicatingProcessor proc;
  f.net.set_server_processor(&proc);
  f.net.send_from_server(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                         tcpflag::kSyn | tcpflag::kAck, 500,
                                         101));
  f.loop.run();
  EXPECT_EQ(f.client.received.size(), 2u);
}

class DroppingProcessor : public PacketProcessor {
 public:
  void process_outbound_into(Packet, std::vector<Packet>&) override {}
  void process_inbound_into(Packet, std::vector<Packet>&) override {}
};

TEST(Network, InboundProcessorCanDrop) {
  Fixture f;
  DroppingProcessor proc;
  f.net.set_client_processor(&proc);
  f.net.send_from_server(make_tcp_packet(kServerAddr, 80, kClientAddr, 3822,
                                         tcpflag::kSyn | tcpflag::kAck, 500,
                                         101));
  f.loop.run();
  EXPECT_TRUE(f.client.received.empty());
}

TEST(Network, LossDropsSomePackets) {
  EventLoop loop;
  Network::Config config;
  config.link.client_censor_up.loss = 0.5;
  Network net(loop, config, Rng(42));
  RecordingEndpoint server;
  net.set_server(&server);
  for (int i = 0; i < 100; ++i) net.send_from_client(client_packet());
  loop.run();
  EXPECT_GT(server.received.size(), 20u);
  EXPECT_LT(server.received.size(), 80u);
}

TEST(Network, LinkDuplicationDeliversTwoCopies) {
  EventLoop loop;
  Network::Config config;
  config.link.client_censor_up.duplicate = 1.0;
  Network net(loop, config, Rng(1));
  RecordingEndpoint server;
  net.set_server(&server);
  net.send_from_client(client_packet());
  loop.run();
  EXPECT_EQ(server.received.size(), 2u);
  EXPECT_EQ(net.trace().at(TracePoint::kDuplicated).size(), 1u);
}

TEST(Network, LinkCorruptionFailsChecksumButCensorStillSees) {
  EventLoop loop;
  Network::Config config;
  config.link.client_censor_up.corrupt = 1.0;
  Network net(loop, config, Rng(1));
  RecordingEndpoint server;
  RecordingMiddlebox box;
  net.set_server(&server);
  net.add_middlebox(&box);
  Packet pkt = make_tcp_packet(kClientAddr, 3822, kServerAddr, 80,
                               tcpflag::kAck, 100, 500,
                               to_bytes("forbidden payload"));
  net.send_from_client(std::move(pkt));
  loop.run();
  // The corrupted copy still traverses the path (the censor inspects it;
  // real middleboxes rarely verify checksums) but arrives with a checksum
  // that no longer matches its bytes.
  ASSERT_EQ(box.seen.size(), 1u);
  EXPECT_FALSE(box.seen[0].first.tcp_checksum_valid());
  ASSERT_EQ(server.received.size(), 1u);
  EXPECT_FALSE(server.received[0].tcp_checksum_valid());
  EXPECT_EQ(net.trace().at(TracePoint::kCorrupted).size(), 1u);
}

TEST(Network, LinkFlapBlocksTrafficDuringTheWindow) {
  EventLoop loop;
  Network::Config config;
  config.link.client_censor_up.flaps.push_back(
      {duration::ms(10), duration::ms(100)});
  Network net(loop, config, Rng(1));
  RecordingEndpoint server;
  net.set_server(&server);
  net.send_from_client(client_packet());  // t=0: before the flap
  loop.schedule_at(duration::ms(50),
                   [&] { net.send_from_client(client_packet()); });
  loop.schedule_at(duration::ms(200),
                   [&] { net.send_from_client(client_packet()); });
  loop.run();
  EXPECT_EQ(server.received.size(), 2u);
  EXPECT_EQ(net.trace().at(TracePoint::kLost).size(), 1u);
}

TEST(Network, ReorderJitterDelaysDelivery) {
  EventLoop loop;
  Network::Config config;
  config.link.client_censor_up.reorder = 1.0;
  config.link.client_censor_up.jitter_min = duration::ms(30);
  config.link.client_censor_up.jitter_max = duration::ms(30);
  Network net(loop, config, Rng(1));
  RecordingEndpoint server;
  net.set_server(&server);
  net.send_from_client(client_packet());
  loop.run();
  ASSERT_EQ(server.received.size(), 1u);
  // 20 ms of path delay plus the forced 30 ms jitter.
  EXPECT_EQ(loop.now(), duration::ms(50));
  EXPECT_EQ(net.trace().at(TracePoint::kReordered).size(), 1u);
}

TEST(Network, TraceRecordsLifecycle) {
  Fixture f;
  RecordingMiddlebox box;
  f.net.add_middlebox(&box);
  f.net.send_from_client(client_packet());
  f.loop.run();
  EXPECT_EQ(f.net.trace().at(TracePoint::kClientSent).size(), 1u);
  EXPECT_EQ(f.net.trace().at(TracePoint::kCensorSaw).size(), 1u);
  EXPECT_EQ(f.net.trace().at(TracePoint::kServerReceived).size(), 1u);
}

}  // namespace
}  // namespace caya
