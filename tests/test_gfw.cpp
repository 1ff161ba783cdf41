// Unit tests for the GFW box state machine, driving packets through the
// Middlebox interface directly with deterministic (p=0/p=1) parameters.
#include "censor/gfw.h"

#include <gtest/gtest.h>

namespace caya {
namespace {

const Ipv4Address kClient = Ipv4Address::parse("101.6.8.2");
const Ipv4Address kServer = Ipv4Address::parse("93.184.216.34");

class FakeInjector : public Injector {
 public:
  void inject(Packet pkt, Direction toward) override {
    injected.push_back({std::move(pkt), toward});
  }
  [[nodiscard]] Time now() const override { return now_value; }

  std::vector<std::pair<Packet, Direction>> injected;
  Time now_value = 0;
};

GfwBoxParams deterministic_http() {
  GfwBoxParams params = gfw_params(AppProtocol::kHttp);
  params.p_miss = 0.0;
  params.p_resync_on_rst = 1.0;
  params.p_resync_on_payload_syn = 1.0;
  params.p_resync_on_payload_other = 1.0;
  return params;
}

Packet client_pkt(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                  Bytes payload = {}) {
  return make_tcp_packet(kClient, 40000, kServer, 80, flags, seq, ack,
                         std::move(payload));
}

Packet server_pkt(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                  Bytes payload = {}) {
  return make_tcp_packet(kServer, 80, kClient, 40000, flags, seq, ack,
                         std::move(payload));
}

Bytes forbidden_request() {
  return to_bytes("GET /?q=ultrasurf HTTP/1.1\r\nHost: x\r\n\r\n");
}

// Drives a complete normal handshake through the box.
void handshake(GfwBox& box, FakeInjector& inj) {
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(client_pkt(tcpflag::kAck, 1001, 5001),
                      Direction::kClientToServer, inj);
}

TEST(GfwBox, CensorsForbiddenRequestInSyncedFlow) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 1u);
  // RSTs to both ends (two toward the server with staggered seqs, one
  // toward the client).
  ASSERT_EQ(inj.injected.size(), 3u);
  EXPECT_EQ(inj.injected[0].second, Direction::kClientToServer);
  EXPECT_EQ(inj.injected[2].second, Direction::kServerToClient);
  EXPECT_TRUE(has_flag(inj.injected[2].first.tcp.flags, tcpflag::kRst));
}

TEST(GfwBox, BenignRequestPasses) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 to_bytes("GET /weather HTTP/1.1\r\n\r\n")),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
  EXPECT_TRUE(inj.injected.empty());
}

TEST(GfwBox, NoTcbWithoutClientSynFailsOpen) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  // Forbidden request with no prior handshake: the GFW needs the SYN.
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
}

TEST(GfwBox, ClientRstWithCorrectSeqTearsDown) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(client_pkt(tcpflag::kRst, 1001, 0),
                      Direction::kClientToServer, inj);
  // Subsequent forbidden request ignored: TCB is gone.
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
}

TEST(GfwBox, ClientRstWithWrongSeqIgnored) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(client_pkt(tcpflag::kRst, 999999, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 1u);
}

TEST(GfwBox, ClientFinWithCorrectSeqAlsoTearsDown) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(client_pkt(tcpflag::kFin | tcpflag::kAck, 1001, 5001),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
}

TEST(GfwBox, ServerRstNeverTearsDownButResyncs) {
  // §3's asymmetry: with p_resync_on_rst = 1 the box enters resync; syncing
  // on the client's correctly-sequenced next packet keeps it censoring.
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(server_pkt(tcpflag::kRst, 5000, 0),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(client_pkt(tcpflag::kAck, 1001, 5001),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 1u);
}

TEST(GfwBox, SimultaneousOpenResyncDesyncsByOne) {
  // Strategy 1's mechanism, deterministic: RST -> resync; the client's
  // simultaneous-open SYN+ACK carries the ISN, so the box lands one byte
  // short and the request (at ISN+1) no longer lines up.
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(server_pkt(tcpflag::kRst, 5000, 1001),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(server_pkt(tcpflag::kSyn, 5000, 0),
                      Direction::kServerToClient, inj);
  // Client's simultaneous-open SYN+ACK (seq = ISN).
  (void)box.on_packet(
      client_pkt(tcpflag::kSyn | tcpflag::kAck, 1000, 5001),
      Direction::kClientToServer, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);

  // The paper's verification: decrementing the request's seq by one
  // re-aligns with the desynced box and restores censorship.
  GfwBox box2(deterministic_http(), {}, Rng(1));
  FakeInjector inj2;
  (void)box2.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                       Direction::kClientToServer, inj2);
  (void)box2.on_packet(server_pkt(tcpflag::kRst, 5000, 1001),
                       Direction::kServerToClient, inj2);
  (void)box2.on_packet(server_pkt(tcpflag::kSyn, 5000, 0),
                       Direction::kServerToClient, inj2);
  (void)box2.on_packet(
      client_pkt(tcpflag::kSyn | tcpflag::kAck, 1000, 5001),
      Direction::kClientToServer, inj2);
  (void)box2.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1000, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj2);
  EXPECT_EQ(box2.censored_count(), 1u);
}

TEST(GfwBox, Rule1SyncsOnCorruptAckSynAck) {
  // Strategy 6's mechanism: payload on a FIN -> resync; the next server
  // SYN+ACK's (corrupted) ack becomes the expected client seq.
  GfwBoxParams params = deterministic_http();
  GfwBox box(params, {}, Rng(1));
  FakeInjector inj;
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(server_pkt(tcpflag::kFin, 5000, 0, to_bytes("junk")),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(
      server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 424242),  // bad ack
      Direction::kServerToClient, inj);
  (void)box.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(client_pkt(tcpflag::kAck, 1001, 5001),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);  // desynced to 424242
}

TEST(GfwBox, CorruptAckResyncOnlyWhenEnabled) {
  // HTTP box: corrupt-ack SYN+ACK does NOT trigger resync (p = 0); the FTP
  // box (p > 0 forced to 1 here) does, syncing on the induced RST.
  GfwBoxParams http = deterministic_http();
  http.p_resync_on_rst = 0.0;
  http.p_resync_on_payload_syn = 0.0;
  http.p_resync_on_payload_other = 0.0;
  GfwBox http_box(http, {}, Rng(1));
  FakeInjector inj;
  (void)http_box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                           Direction::kClientToServer, inj);
  (void)http_box.on_packet(
      server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 77777),
      Direction::kServerToClient, inj);
  (void)http_box.on_packet(
      server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
      Direction::kServerToClient, inj);
  // Induced RST (seq = bogus ack).
  (void)http_box.on_packet(client_pkt(tcpflag::kRst, 77777, 0),
                           Direction::kClientToServer, inj);
  (void)http_box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(http_box.censored_count(), 1u);  // still synced -> censored

  GfwBoxParams ftp = gfw_params(AppProtocol::kFtp);
  ftp.p_miss = 0.0;
  ftp.p_resync_on_corrupt_ack = 1.0;
  ftp.p_reassembly = 1.0;
  GfwBox ftp_box(ftp, {}, Rng(1));
  FakeInjector inj2;
  (void)ftp_box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                          Direction::kClientToServer, inj2);
  (void)ftp_box.on_packet(
      server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 77777),
      Direction::kServerToClient, inj2);
  (void)ftp_box.on_packet(
      server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
      Direction::kServerToClient, inj2);
  (void)ftp_box.on_packet(client_pkt(tcpflag::kRst, 77777, 0),
                          Direction::kClientToServer, inj2);
  (void)ftp_box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 to_bytes("RETR ultrasurf\r\n")),
      Direction::kClientToServer, inj2);
  EXPECT_EQ(ftp_box.censored_count(), 0u);  // desynced onto 77777
}

TEST(GfwBox, ReassemblyCatchesSegmentedRequest) {
  GfwBox box(deterministic_http(), {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  const Bytes request = forbidden_request();
  std::uint32_t seq = 1001;
  for (std::size_t i = 0; i < request.size(); i += 10) {
    Bytes chunk(request.begin() + static_cast<long>(i),
                request.begin() +
                    static_cast<long>(std::min(i + 10, request.size())));
    (void)box.on_packet(
        client_pkt(tcpflag::kPsh | tcpflag::kAck, seq, 5001, chunk),
        Direction::kClientToServer, inj);
    seq += static_cast<std::uint32_t>(chunk.size());
  }
  EXPECT_EQ(box.censored_count(), 1u);
}

TEST(GfwBox, NonReassemblingBoxMissesSegmentedCommand) {
  GfwBoxParams params = gfw_params(AppProtocol::kSmtp);
  params.p_miss = 0.0;
  params.p_reassembly = 0.0;
  GfwBox box(params, {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  // Whole command in one packet: caught.
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 to_bytes("RCPT TO:<xiazai@upup8.com>\r\n")),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 1u);

  GfwBox box2(params, {}, Rng(1));
  FakeInjector inj2;
  handshake(box2, inj2);
  // Split across two packets: missed forever.
  (void)box2.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 to_bytes("RCPT TO:<xia")),
      Direction::kClientToServer, inj2);
  (void)box2.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1013, 5001,
                 to_bytes("zai@upup8.com>\r\n")),
      Direction::kClientToServer, inj2);
  EXPECT_EQ(box2.censored_count(), 0u);
}

TEST(GfwBox, ResidualCensorshipKillsFollowupConnections) {
  GfwBoxParams params = deterministic_http();
  ASSERT_GT(params.residual_duration, 0u);
  GfwBox box(params, {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  ASSERT_EQ(box.censored_count(), 1u);
  EXPECT_TRUE(box.residual_active(kServer, 80, inj.now_value));

  // A new, totally benign connection from another port is torn down right
  // after its handshake while residual censorship is active.
  inj.now_value += duration::sec(10);
  auto c2 = [&](std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                Bytes payload = {}) {
    return make_tcp_packet(kClient, 40001, kServer, 80, flags, seq, ack,
                           std::move(payload));
  };
  (void)box.on_packet(c2(tcpflag::kSyn, 2000, 0),
                      Direction::kClientToServer, inj);
  const std::size_t injected_before = inj.injected.size();
  (void)box.on_packet(c2(tcpflag::kAck, 2001, 6001),
                      Direction::kClientToServer, inj);
  EXPECT_GT(inj.injected.size(), injected_before);
  EXPECT_EQ(box.censored_count(), 2u);

  // After 90 seconds the residual entry expires.
  inj.now_value += duration::sec(100);
  EXPECT_FALSE(box.residual_active(kServer, 80, inj.now_value));
}

TEST(GfwBox, SmtpBoxDiesOnTinyWindowSynAck) {
  GfwBoxParams params = gfw_params(AppProtocol::kSmtp);
  params.p_miss = 0.0;
  GfwBox box(params, {}, Rng(1));
  FakeInjector inj;
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  Packet sa = server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001);
  sa.tcp.window = 10;
  (void)box.on_packet(sa, Direction::kServerToClient, inj);
  (void)box.on_packet(client_pkt(tcpflag::kAck, 1001, 5001),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 to_bytes("RCPT TO:<xiazai@upup8.com>\r\n")),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
}

TEST(GfwBox, PerFlowMissRateFailsOpen) {
  GfwBoxParams params = deterministic_http();
  params.p_miss = 1.0;
  GfwBox box(params, {}, Rng(1));
  FakeInjector inj;
  handshake(box, inj);
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
}

TEST(ChinaCensor, HasFiveColocatedBoxes) {
  ChinaCensor china({}, Rng(1));
  EXPECT_EQ(china.middleboxes().size(), 5u);
  for (const AppProtocol proto : all_protocols()) {
    EXPECT_EQ(china.box(proto).protocol(), proto);
  }
}

TEST(ChinaCensor, ResetClearsState) {
  ChinaCensor china({}, Rng(1));
  FakeInjector inj;
  GfwBox& http = china.box(AppProtocol::kHttp);
  (void)http.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                       Direction::kClientToServer, inj);
  (void)http.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                       Direction::kServerToClient, inj);
  (void)http.on_packet(client_pkt(tcpflag::kAck, 1001, 5001),
                       Direction::kClientToServer, inj);
  (void)http.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                 forbidden_request()),
      Direction::kClientToServer, inj);
  ASSERT_EQ(http.censored_count(), 1u);
  ASSERT_TRUE(http.residual_active(kServer, 80, 0));
  china.flush();
  EXPECT_FALSE(http.residual_active(kServer, 80, 0));
}

GfwBoxParams deterministic_ftp() {
  GfwBoxParams params = gfw_params(AppProtocol::kFtp);
  params.p_miss = 0.0;
  params.p_reassembly = 1.0;
  params.p_resync_on_payload_syn = 1.0;
  params.p_resync_on_payload_other = 1.0;
  return params;
}

TEST(GfwBox, LossInducedResyncCatchesTheRetransmission) {
  // Path loss swallows the client's handshake ACK and first command before
  // they reach the censor tap. The server's banner (payload on a non-SYN+ACK
  // packet) is the §5 rule-1 trigger: the box arms resynchronization and
  // adopts the client's *retransmitted* command as the new stream position —
  // re-entering sync exactly because packets were lost, and still censoring.
  GfwBox box(deterministic_ftp(), {}, Rng(1));
  FakeInjector inj;
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                      Direction::kServerToClient, inj);
  // Client handshake ACK: lost before the censor hop (box never sees it).
  (void)box.on_packet(
      server_pkt(tcpflag::kPsh | tcpflag::kAck, 5001, 1001,
                 to_bytes("220 service ready\r\n")),
      Direction::kServerToClient, inj);
  // First copy of the command: also lost. The retransmission arrives:
  (void)box.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5020,
                 to_bytes("RETR ultrasurf\r\n")),
      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 1u);
  EXPECT_FALSE(inj.injected.empty());
}

TEST(GfwBox, ResyncOntoLaterSegmentMissesEarlierBytes) {
  // Same rule-1 entry, but this time loss eats only the FIRST of two command
  // segments. The box resynchronizes onto the second segment's sequence
  // number; the earlier bytes (holding most of the keyword) are below its
  // believed stream base forever, so even their retransmission cannot
  // complete a match — loss-induced desync fails open.
  GfwBox box(deterministic_ftp(), {}, Rng(1));
  FakeInjector inj;
  (void)box.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                      Direction::kClientToServer, inj);
  (void)box.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                      Direction::kServerToClient, inj);
  (void)box.on_packet(
      server_pkt(tcpflag::kPsh | tcpflag::kAck, 5001, 1001,
                 to_bytes("220 service ready\r\n")),
      Direction::kServerToClient, inj);
  // "RETR ultra" (seq 1001, 10 bytes): lost before the censor.
  // "surf\r\n" (seq 1011): seen — and adopted as the resync point.
  (void)box.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1011, 5020,
                                 to_bytes("surf\r\n")),
                      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
  // The client retransmits the lost first segment; it is below the box's
  // stream base and never joins the reassembled stream.
  (void)box.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5020,
                                 to_bytes("RETR ultra")),
                      Direction::kClientToServer, inj);
  EXPECT_EQ(box.censored_count(), 0u);
  EXPECT_TRUE(inj.injected.empty());
}

}  // namespace
}  // namespace caya
