// TurkmenistanCensor: a censor model built *entirely* from the shared
// pipeline stages (FlowTable / TriggerStage / verdict actions), per Nourin
// et al. The tests pin its wire behaviour (bidirectional RST+ACK volleys),
// its fail-open modes (segmentation, no TCB, reassembly gaps), and — the
// point of modelling it — that client-side TCB-teardown insertion packets
// defeat it while unmodified baseline flows are blocked.
#include <gtest/gtest.h>

#include <vector>

#include "censor/turkmenistan.h"
#include "eval/clientside.h"
#include "eval/country.h"
#include "eval/trial.h"

namespace caya {
namespace {

const Ipv4Address kClient = Ipv4Address::parse("101.6.8.2");
const Ipv4Address kServer = Ipv4Address::parse("93.184.216.34");

class RecordingInjector : public Injector {
 public:
  void inject(Packet pkt, Direction toward) override {
    injected.emplace_back(std::move(pkt), toward);
  }
  [[nodiscard]] Time now() const override { return 0; }

  std::vector<std::pair<Packet, Direction>> injected;
};

Packet client_pkt(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                  Bytes payload = {}, std::uint16_t dport = 80) {
  return make_tcp_packet(kClient, 40000, kServer, dport, flags, seq, ack,
                         std::move(payload));
}

Packet server_pkt(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                  Bytes payload = {}, std::uint16_t sport = 80) {
  return make_tcp_packet(kServer, sport, kClient, 40000, flags, seq, ack,
                         std::move(payload));
}

Bytes blocked_request() {
  return to_bytes("GET / HTTP/1.1\r\nHost: blocked-site.tm\r\n\r\n");
}

TurkmenistanCensor deterministic_censor() {
  TurkmenistanParams params;
  params.p_miss = 0.0;
  return TurkmenistanCensor(forbidden_content(Country::kTurkmenistan), Rng(1),
                            params);
}

/// Drives the handshake through the censor so a TCB exists.
void handshake(TurkmenistanCensor& censor, Injector& inj) {
  (void)censor.on_packet(client_pkt(tcpflag::kSyn, 1000, 0),
                         Direction::kClientToServer, inj);
  (void)censor.on_packet(server_pkt(tcpflag::kSyn | tcpflag::kAck, 5000, 1001),
                         Direction::kServerToClient, inj);
  (void)censor.on_packet(client_pkt(tcpflag::kAck, 1001, 5001),
                         Direction::kClientToServer, inj);
}

TEST(Turkmenistan, BidirectionalRstAckWireSignature) {
  TurkmenistanCensor censor = deterministic_censor();
  RecordingInjector inj;
  handshake(censor, inj);
  ASSERT_TRUE(inj.injected.empty());

  const Bytes req = blocked_request();
  const auto len = static_cast<std::uint32_t>(req.size());
  const Verdict v =
      censor.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                                  req),
                       Direction::kClientToServer, inj);
  // On-path: the trigger packet itself always passes.
  EXPECT_EQ(v, Verdict::kPass);
  EXPECT_EQ(censor.censored_count(), 1u);

  // Three RST+ACKs toward the client (staggered seqs from the server's
  // position), one toward the server (from the client's next seq).
  ASSERT_EQ(inj.injected.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    const auto& [pkt, toward] = inj.injected[static_cast<std::size_t>(i)];
    EXPECT_EQ(toward, Direction::kServerToClient);
    EXPECT_EQ(pkt.tcp.flags, tcpflag::kRst | tcpflag::kAck);
    EXPECT_EQ(pkt.ip.src, kServer);
    EXPECT_EQ(pkt.tcp.seq, 5001u + static_cast<std::uint32_t>(i));
    EXPECT_EQ(pkt.tcp.ack, 1001u + len);
  }
  const auto& [to_server, toward_server] = inj.injected[3];
  EXPECT_EQ(toward_server, Direction::kClientToServer);
  EXPECT_EQ(to_server.tcp.flags, tcpflag::kRst | tcpflag::kAck);
  EXPECT_EQ(to_server.ip.src, kClient);
  EXPECT_EQ(to_server.tcp.seq, 1001u + len);
  EXPECT_EQ(to_server.tcp.ack, 5001u);

  // One volley per flow: the flow is dead afterwards.
  inj.injected.clear();
  (void)censor.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001 + len,
                                    5001, blocked_request()),
                         Direction::kClientToServer, inj);
  EXPECT_TRUE(inj.injected.empty());
  EXPECT_EQ(censor.censored_count(), 1u);
}

TEST(Turkmenistan, ServerSidePayloadAlsoTriggers) {
  // Bidirectional matching: a server packet echoing the blocked hostname
  // draws the same volley (this is how Nourin et al. measured the censor
  // from outside the country).
  TurkmenistanCensor censor = deterministic_censor();
  RecordingInjector inj;
  handshake(censor, inj);

  const Bytes echo = blocked_request();
  (void)censor.on_packet(server_pkt(tcpflag::kPsh | tcpflag::kAck, 5001, 1001,
                                    echo),
                         Direction::kServerToClient, inj);
  EXPECT_EQ(censor.censored_count(), 1u);
  ASSERT_EQ(inj.injected.size(), 4u);
  // Toward-client RSTs anchor at the server payload's end.
  EXPECT_EQ(inj.injected[0].first.tcp.seq,
            5001u + static_cast<std::uint32_t>(echo.size()));
  EXPECT_EQ(inj.injected[0].first.tcp.ack, 1001u);
}

TEST(Turkmenistan, SegmentationFailsOpen) {
  // No reassembler: the Host header split across two packets never matches.
  TurkmenistanCensor censor = deterministic_censor();
  RecordingInjector inj;
  handshake(censor, inj);

  const Bytes req = blocked_request();
  const std::size_t cut = req.size() / 2;
  const Bytes head(req.begin(), req.begin() + static_cast<long>(cut));
  const Bytes tail(req.begin() + static_cast<long>(cut), req.end());
  (void)censor.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                                    head),
                         Direction::kClientToServer, inj);
  (void)censor.on_packet(
      client_pkt(tcpflag::kPsh | tcpflag::kAck,
                 1001 + static_cast<std::uint32_t>(cut), 5001, tail),
      Direction::kClientToServer, inj);
  EXPECT_EQ(censor.censored_count(), 0u);
  EXPECT_TRUE(inj.injected.empty());
}

TEST(Turkmenistan, NoTcbFailsOpen) {
  // A forbidden request on a flow whose SYN the censor never saw is ignored
  // in both directions.
  TurkmenistanCensor censor = deterministic_censor();
  RecordingInjector inj;
  (void)censor.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                                    blocked_request()),
                         Direction::kClientToServer, inj);
  (void)censor.on_packet(server_pkt(tcpflag::kPsh | tcpflag::kAck, 5001, 1001,
                                    blocked_request()),
                         Direction::kServerToClient, inj);
  EXPECT_EQ(censor.censored_count(), 0u);
  EXPECT_TRUE(inj.injected.empty());
  EXPECT_EQ(censor.tcb_count(), 0u);
}

TEST(Turkmenistan, ClientTeardownDeletesTcb) {
  // An in-window client RST tears the TCB down; the forbidden request that
  // follows (same flow, same sequence space) is no longer inspected.
  TurkmenistanCensor censor = deterministic_censor();
  RecordingInjector inj;
  handshake(censor, inj);

  (void)censor.on_packet(client_pkt(tcpflag::kRst, 1001, 0),
                         Direction::kClientToServer, inj);
  (void)censor.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001, 5001,
                                    blocked_request()),
                         Direction::kClientToServer, inj);
  EXPECT_EQ(censor.censored_count(), 0u);
  EXPECT_TRUE(inj.injected.empty());

  // A wrong-seq RST must NOT tear the TCB down.
  TurkmenistanCensor censor2 = deterministic_censor();
  handshake(censor2, inj);
  (void)censor2.on_packet(client_pkt(tcpflag::kRst, 9999, 0),
                          Direction::kClientToServer, inj);
  (void)censor2.on_packet(client_pkt(tcpflag::kPsh | tcpflag::kAck, 1001,
                                     5001, blocked_request()),
                          Direction::kClientToServer, inj);
  EXPECT_EQ(censor2.censored_count(), 1u);
}

TEST(Turkmenistan, TcbCountAndReset) {
  TurkmenistanCensor censor = deterministic_censor();
  RecordingInjector inj;
  for (std::uint16_t i = 0; i < 5; ++i) {
    const Packet syn = make_tcp_packet(kClient, 41000 + i, kServer, 80,
                                       tcpflag::kSyn, 100, 0);
    (void)censor.on_packet(syn, Direction::kClientToServer, inj);
  }
  EXPECT_EQ(censor.tcb_count(), 5u);
  censor.flush();
  EXPECT_EQ(censor.tcb_count(), 0u);
}

// ---- End-to-end, through the full Environment ----------------------------

TEST(Turkmenistan, BaselineHttpAndHttpsAreBlocked) {
  for (const AppProtocol protocol : censored_protocols(
           Country::kTurkmenistan)) {
    Environment::Config config;
    config.country = Country::kTurkmenistan;
    config.protocol = protocol;
    config.seed = 7;
    const TrialResult result = run_trial(config, {});
    EXPECT_FALSE(result.success) << to_string(protocol);
    EXPECT_GT(result.censor_events, 0u) << to_string(protocol);
  }
}

TEST(Turkmenistan, ClientSideTcbTeardownEvades) {
  // The corpus' classic TTL-limited RST insertion packet (§3 shape): the
  // RST crosses the censor at hop 3 and dies before the server at hop 10,
  // so the censor believes the flow closed and the request sails through.
  const ClientSideStrategy& classic = clientside_corpus().back();
  ASSERT_EQ(classic.teardown_flags, "R");

  std::size_t evaded = 0;
  constexpr std::uint64_t kTrials = 10;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    Environment::Config config;
    config.country = Country::kTurkmenistan;
    config.protocol = AppProtocol::kHttp;
    config.seed = seed;
    ConnectionOptions options;
    options.client_strategy = classic.client_strategy();
    const TrialResult result = run_trial(config, options);
    if (result.success) ++evaded;

    // The identical seed without the strategy must fail.
    Environment::Config baseline_config = config;
    const TrialResult baseline = run_trial(baseline_config, {});
    EXPECT_FALSE(baseline.success) << seed;
  }
  // p_miss=2% leaves room for an occasional baseline pass; the teardown
  // strategy must dominate decisively.
  EXPECT_GE(evaded, kTrials - 1);
}

TEST(Turkmenistan, StageAttributionInTrace) {
  Environment::Config config;
  config.country = Country::kTurkmenistan;
  config.protocol = AppProtocol::kHttp;
  config.seed = 7;
  config.net.trace_stages = true;
  ConnectionOptions options;
  options.record_trace = true;
  const TrialResult result = run_trial(config, options);
  ASSERT_GT(result.censor_events, 0u);

  bool saw_flow_table = false;
  bool saw_trigger = false;
  bool saw_verdict = false;
  for (const TraceEvent& ev : result.trace.events()) {
    if (ev.point != TracePoint::kCensorStage) continue;
    if (ev.note.find("turkmenistan/flow-table") != std::string::npos) {
      saw_flow_table = true;
    }
    if (ev.note.find("turkmenistan/trigger") != std::string::npos) {
      saw_trigger = true;
    }
    if (ev.note.find("turkmenistan/verdict") != std::string::npos) {
      saw_verdict = true;
    }
  }
  EXPECT_TRUE(saw_flow_table);
  EXPECT_TRUE(saw_trigger);
  EXPECT_TRUE(saw_verdict);

  // Stage attribution is strictly opt-in: the default config records none.
  config.net.trace_stages = false;
  const TrialResult quiet = run_trial(config, options);
  EXPECT_TRUE(quiet.trace.at(TracePoint::kCensorStage).empty());
}

}  // namespace
}  // namespace caya
