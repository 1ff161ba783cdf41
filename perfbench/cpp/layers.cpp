#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <optional>

#include "eval/censor_set.h"
#include "eval/env_pool.h"
#include "eval/strategies.h"
#include "geneva/engine.h"
#include "geneva/parser.h"
#include "stats.h"
#include "tcpstack/tcp_endpoint.h"
#include "util/rng.h"

namespace perfbench {

using caya::AppProtocol;
using caya::Country;
using caya::Direction;
using caya::Packet;
using caya::Time;

// ---- Prober ------------------------------------------------------------------

caya::Environment& Prober::substrate(const caya::Environment::Config& config,
                                     std::uint64_t digest) {
  for (auto& [key, env] : envs_) {
    if (key == digest) return *env;
  }
  envs_.emplace_back(digest, std::make_unique<caya::Environment>(config));
  return *envs_.back().second;
}

void Prober::discard(std::uint64_t digest) {
  std::erase_if(envs_, [digest](const auto& e) { return e.first == digest; });
}

Probe Prober::probe(const TrialSpec& spec, SpanLog* spans,
                    std::uint32_t parent, std::uint64_t trial_id) {
  Probe p;
  const std::int64_t t0 = now_ns();
  const std::uint64_t digest = caya::env_config_digest(spec.config);
  const std::int64_t t1 = now_ns();
  caya::Environment& env = substrate(spec.config, digest);

  const AllocCount a0 = alloc_count();
  const std::int64_t t2 = now_ns();
  env.reset(spec.config.seed);
  const std::int64_t t3 = now_ns();
  const AllocCount a1 = alloc_count();
  const caya::Network::PacketAccounting before =
      env.network().packet_accounting();
  const std::int64_t t4 = now_ns();
  try {
    const caya::TrialResult result = env.run_connection(*spec.conn);
    p.result = digest_of(result, result.timed_out
                                     ? caya::TrialErrorKind::kTimeout
                                     : caya::TrialErrorKind::kNone);
  } catch (const std::exception&) {
    // The substrate's state is unknown after an escape: rebuild it, as the
    // program's own pool does.
    p.result.error = caya::TrialErrorKind::kCodecError;
    discard(digest);
  }
  const std::int64_t t5 = now_ns();
  const AllocCount a2 = alloc_count();

  if (p.result.error != caya::TrialErrorKind::kCodecError) {
    const caya::Network::PacketAccounting after =
        env.network().packet_accounting();
    p.packets = {after.created - before.created,
                 after.delivered - before.delivered,
                 after.dropped - before.dropped};
    p.sim_us = env.loop().now();
  }
  p.digest_ns = t1 - t0;
  p.reset_ns = t3 - t2;
  p.connection_ns = t5 - t4;
  p.reset_allocs = a1 - a0;
  p.connection_allocs = a2 - a1;

  if (spans != nullptr) {
    const std::uint32_t id = spans->add("trial", parent, trial_id, t0, t5);
    spans->add("digest", id, trial_id, t0, t1);
    spans->add("reset", id, trial_id, t2, t3);
    spans->add("connection", id, trial_id, t4, t5);
  }
  return p;
}

caya::TrialResult Prober::replay(const caya::Environment::Config& config,
                                 const caya::ConnectionOptions& options) {
  const std::uint64_t digest = caya::env_config_digest(config);
  caya::Environment& env = substrate(config, digest);
  env.reset(config.seed);
  try {
    return env.run_connection(options);
  } catch (...) {
    discard(digest);
    throw;
  }
}

namespace {

/// Repeats fn(rep) until `budget_s` has elapsed, at least `min_reps` and at
/// most `max_reps` times.
template <typename Fn>
void repeat_for(double budget_s, std::size_t min_reps, std::size_t max_reps,
                Fn&& fn) {
  const std::int64_t start = now_ns();
  for (std::size_t rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps &&
        static_cast<double>(now_ns() - start) * 1e-9 >= budget_s) {
      break;
    }
    fn(rep);
  }
}

double per(double total, std::size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Results of timed loops land here, so the compiler cannot drop the work.
volatile std::size_t g_sink = 0;

std::string protocol_key(AppProtocol protocol) {
  switch (protocol) {
    case AppProtocol::kDnsOverTcp: return "dns";
    case AppProtocol::kFtp: return "ftp";
    case AppProtocol::kHttp: return "http";
    case AppProtocol::kHttps: return "https";
    case AppProtocol::kSmtp: return "smtp";
  }
  return "?";
}

std::string country_key(Country country) {
  switch (country) {
    case Country::kChina: return "china";
    case Country::kIndia: return "india";
    case Country::kIran: return "iran";
    case Country::kKazakhstan: return "kazakhstan";
    case Country::kTurkmenistan: return "turkmenistan";
  }
  return "?";
}

/// Metric-name stem of each CensorSet box, in boxes() order (China runs one
/// box per protocol, in all_protocols() order).
std::vector<std::string> box_keys(Country country) {
  if (country != Country::kChina) return {country_key(country)};
  std::vector<std::string> keys;
  for (const AppProtocol protocol : caya::all_protocols()) {
    keys.push_back("china." + protocol_key(protocol));
  }
  return keys;
}

/// Injector for censor replay: counts injections, and its clock reads the
/// recorded time of the packet being replayed.
class ReplayInjector : public caya::Injector {
 public:
  void inject(Packet, Direction) override { ++injected; }
  [[nodiscard]] Time now() const override { return at; }

  Time at = 0;
  std::size_t injected = 0;
};

struct SawPacket {
  Packet packet;
  Direction dir = Direction::kClientToServer;
  Time at = 0;
};

struct RecordedTrial {
  Country country = Country::kChina;
  std::uint64_t seed = 0;
  std::vector<SawPacket> saw;  // what the censor hop saw, in order
};

/// Two TCP endpoints joined by a fixed-delay wire on a bare event loop: no
/// link model, censor or engine.
class BareWire : public caya::PacketEventSink {
 public:
  static constexpr std::uint32_t kToServer = 0;
  static constexpr std::uint32_t kToClient = 1;

  BareWire() { loop.set_packet_sink(this); }
  BareWire(const BareWire&) = delete;
  BareWire& operator=(const BareWire&) = delete;

  void on_packet_event(Packet&& pkt, std::uint32_t tag) override {
    caya::TcpEndpoint* target = tag == kToServer ? server : client;
    if (target != nullptr) target->deliver(pkt);
  }

  caya::EventLoop loop;
  caya::TcpEndpoint* client = nullptr;
  caya::TcpEndpoint* server = nullptr;
};

/// Handshake, one HTTP-sized request and response, and a close. Returns
/// whether the client received the whole response.
bool bare_exchange(const caya::Bytes& request, const caya::Bytes& response) {
  const caya::Ipv4Address client_addr = caya::eval_client_addr();
  const caya::Ipv4Address server_addr = caya::eval_server_addr();
  constexpr Time kOneWay = caya::duration::ms(20);
  BareWire wire;
  caya::TcpEndpoint server(
      wire.loop,
      {.local_addr = server_addr,
       .local_port = 80,
       .remote_addr = {},  // learned from the client's SYN
       .isn = 5000},
      [&wire](Packet p) {
        wire.loop.schedule_packet_in(kOneWay, std::move(p),
                                     BareWire::kToClient);
      });
  caya::TcpEndpoint client(wire.loop,
                           {.local_addr = client_addr,
                            .local_port = 40000,
                            .remote_addr = server_addr,
                            .remote_port = 80,
                            .isn = 1000},
                           [&wire](Packet p) {
                             wire.loop.schedule_packet_in(
                                 kOneWay, std::move(p), BareWire::kToServer);
                           });
  wire.client = &client;
  wire.server = &server;
  bool responded = false;
  client.on_established = [&] { client.send_data(request); };
  server.on_data = [&](const caya::Bytes&) {
    if (!responded && server.received().size() >= request.size()) {
      responded = true;
      server.send_data(response);
      server.close();
    }
  };
  client.on_remote_close = [&] { client.close(); };
  server.listen();
  client.connect();
  wire.loop.run(100'000);
  return client.received().size() == response.size();
}

}  // namespace

void measure_layers(const std::vector<TrialSpec>& specs,
                    const std::vector<std::string>& strategy_texts,
                    double budget_s, SpanLog* spans, Checker& checker,
                    MetricValues& out) {
  const std::size_t n = specs.size();
  checker.expect(n > 0, "the workload gives the layer probes trials to run");
  if (n == 0) return;
  Prober prober;

  // 1. Equality with the program's supervised runner; this pass also warms
  // the prober's substrates, so the counted pass below sees steady state.
  const caya::SupervisionPolicy policy;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const TrialSpec& spec = specs[i];
    const caya::SupervisedOutcome supervised = caya::run_supervised_trial(
        spec.config, *spec.conn, policy, spec.index);
    retries += supervised.attempts - 1;
    if (supervised.error == caya::TrialErrorKind::kTimeout) ++timeouts;
    const Probe p = prober.probe(spec);
    if (digest_of(supervised.result, supervised.error) != p.result) {
      ++mismatches;
    }
  }
  checker.expect(mismatches == 0,
                 "decomposed trials equal run_supervised_trial (" +
                     std::to_string(mismatches) + " of " + std::to_string(n) +
                     " differ)");
  out["eval.timeout_frac"] = per(static_cast<double>(timeouts), n);
  out["eval.retries_per_trial"] = per(static_cast<double>(retries), n);

  // 2. Counted pass: the deterministic work counters.
  std::vector<TrialDigest> counted(n);
  {
    AllocCount reset_allocs;
    AllocCount connection_allocs;
    double created = 0, delivered = 0, dropped = 0, sim_us = 0, events = 0;
    double amplification = 0;
    std::size_t engine_trials = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Probe p = prober.probe(specs[i]);
      counted[i] = p.result;
      reset_allocs.calls += p.reset_allocs.calls;
      reset_allocs.bytes += p.reset_allocs.bytes;
      connection_allocs.calls += p.connection_allocs.calls;
      connection_allocs.bytes += p.connection_allocs.bytes;
      created += static_cast<double>(p.packets.created);
      delivered += static_cast<double>(p.packets.delivered);
      dropped += static_cast<double>(p.packets.dropped);
      sim_us += static_cast<double>(p.sim_us);
      events += static_cast<double>(p.result.censor_events);
      if (specs[i].conn->server_strategy) {
        amplification += p.result.amplification;
        ++engine_trials;
      }
    }
    const auto reset_calls = static_cast<double>(reset_allocs.calls);
    const auto connection_calls = static_cast<double>(connection_allocs.calls);
    out["eval.reset_allocs"] = per(reset_calls, n);
    out["eval.connection_allocs"] = per(connection_calls, n);
    out["eval.allocs_per_trial"] = per(reset_calls + connection_calls, n);
    out["eval.alloc_bytes_per_trial"] =
        per(static_cast<double>(reset_allocs.bytes + connection_allocs.bytes),
            n);
    out["netsim.packets_per_trial"] = per(created, n);
    out["netsim.delivered_per_trial"] = per(delivered, n);
    out["netsim.dropped_per_trial"] = per(dropped, n);
    out["netsim.sim_ms_per_trial"] = per(sim_us / 1000.0, n);
    out["censor.events_per_trial"] = per(events, n);
    out["geneva.amplification"] =
        engine_trials == 0 ? 1.0 : per(amplification, engine_trials);
  }

  // 3. Timed passes: reset, connection and digest wall time per trial.
  {
    std::vector<double> reset_us, connection_us, digest_ns;
    std::map<AppProtocol, std::vector<double>> by_protocol;
    double connection_ns = 0;
    double packets = 0;
    repeat_for(budget_s * 0.35, 2, 10'000, [&](std::size_t rep) {
      SpanLog* log = rep == 0 ? spans : nullptr;
      const std::uint32_t root =
          log != nullptr ? log->open("layer_pass", SpanLog::kNone, 0)
                         : SpanLog::kNone;
      for (std::size_t i = 0; i < n; ++i) {
        const Probe p = prober.probe(specs[i], log, root, i);
        reset_us.push_back(static_cast<double>(p.reset_ns) / 1e3);
        connection_us.push_back(static_cast<double>(p.connection_ns) / 1e3);
        digest_ns.push_back(static_cast<double>(p.digest_ns));
        by_protocol[specs[i].config.protocol].push_back(
            static_cast<double>(p.connection_ns) / 1e3);
        connection_ns += static_cast<double>(p.connection_ns);
        packets += static_cast<double>(p.packets.created);
      }
      if (log != nullptr) log->close(root);
    });
    out["eval.reset_us"] = median(reset_us);
    out["eval.connection_us_p50"] = percentile(connection_us, 50.0);
    out["eval.connection_us_p99"] = percentile(connection_us, 99.0);
    out["eval.digest_ns"] = median(digest_ns);
    for (const auto& [protocol, samples] : by_protocol) {
      out["apps." + protocol_key(protocol) + ".connection_us"] =
          median(samples);
    }
    out["netsim.ns_per_packet"] = packets == 0 ? 0.0 : connection_ns / packets;
  }

  // 4. Recorded trials: a stride sample re-run with trace recording, plus
  // its no-evasion twin for the server packets the engine probe replays.
  constexpr std::size_t kRecordedTrials = 400;
  constexpr std::size_t kMaxServerPackets = 4000;
  const std::size_t stride = std::max<std::size_t>(1, n / kRecordedTrials);
  std::vector<RecordedTrial> recorded;
  std::vector<Packet> server_packets;
  {
    std::deque<caya::ConnectionOptions> options;  // stable addresses
    std::map<const caya::ConnectionOptions*,
             std::pair<const caya::ConnectionOptions*,
                       const caya::ConnectionOptions*>>
        variants;  // spec options -> (recording, recording without evasion)
    double lost = 0, reordered = 0, duplicated = 0;
    std::size_t differ = 0;
    for (std::size_t i = 0; i < n; i += stride) {
      const TrialSpec& spec = specs[i];
      auto it = variants.find(spec.conn);
      if (it == variants.end()) {
        caya::ConnectionOptions& traced = options.emplace_back(*spec.conn);
        traced.record_trace = true;
        caya::ConnectionOptions& bare = options.emplace_back(traced);
        bare.server_strategy.reset();
        it = variants.emplace(spec.conn, std::make_pair(&traced, &bare)).first;
      }
      const caya::TrialResult result =
          prober.replay(spec.config, *it->second.first);
      const TrialDigest digest = digest_of(
          result, result.timed_out ? caya::TrialErrorKind::kTimeout
                                   : caya::TrialErrorKind::kNone);
      if (digest != counted[i]) ++differ;
      RecordedTrial& trial = recorded.emplace_back();
      trial.country = spec.config.country;
      trial.seed = spec.config.seed;
      for (const caya::TraceEvent& event : result.trace.events()) {
        switch (event.point) {
          case caya::TracePoint::kLost: ++lost; break;
          case caya::TracePoint::kReordered: ++reordered; break;
          case caya::TracePoint::kDuplicated: ++duplicated; break;
          case caya::TracePoint::kCensorSaw:
            trial.saw.push_back({event.packet, event.direction, event.at});
            break;
          default: break;
        }
      }
      if (server_packets.size() < kMaxServerPackets) {
        const caya::TrialResult bare =
            prober.replay(spec.config, *it->second.second);
        for (const caya::TraceEvent& event : bare.trace.events()) {
          if (event.point == caya::TracePoint::kServerSent &&
              server_packets.size() < kMaxServerPackets) {
            server_packets.push_back(event.packet);
          }
        }
      }
    }
    checker.expect(differ == 0, "recording a trial's trace leaves its "
                                "outcome unchanged (" +
                                    std::to_string(differ) + " differ)");
    const std::size_t r = recorded.size();
    out["netsim.lost_per_trial"] = per(lost, r);
    out["netsim.reordered_per_trial"] = per(reordered, r);
    out["netsim.duplicated_per_trial"] = per(duplicated, r);
  }

  // 5. Censor replay: each recorded trial's censor-hop packets, with their
  // directions and times, through every box of a CensorSet for its country.
  {
    std::map<Country, std::unique_ptr<caya::CensorSet>> sets;
    std::map<std::string, std::vector<double>> ns_per_pkt;
    double saw = 0, tcbs = 0, evicted = 0;
    ReplayInjector injector;
    repeat_for(budget_s * 0.2, 3, 10'000, [&](std::size_t rep) {
      std::map<std::string, std::pair<double, double>> totals;  // ns, pkts
      for (const RecordedTrial& trial : recorded) {
        auto& set = sets[trial.country];
        if (!set) set = std::make_unique<caya::CensorSet>(trial.country, 1);
        set->reset(trial.seed);
        const std::vector<caya::Middlebox*>& boxes = set->boxes();
        const std::vector<std::string> keys = box_keys(trial.country);
        for (std::size_t b = 0; b < boxes.size(); ++b) {
          caya::Middlebox* box = boxes[b];
          const std::int64_t t0 = now_ns();
          for (const SawPacket& sp : trial.saw) {
            injector.at = sp.at;
            (void)box->on_packet(sp.packet, sp.dir, injector);
          }
          auto& [ns, pkts] = totals[keys[b]];
          ns += static_cast<double>(now_ns() - t0);
          pkts += static_cast<double>(trial.saw.size());
        }
        if (rep == 0) {
          saw += static_cast<double>(trial.saw.size());
          tcbs += static_cast<double>(set->tcb_total());
          evicted += static_cast<double>(set->state_stats().evicted_flows);
        }
      }
      for (const auto& [key, total] : totals) {
        if (total.second > 0) {
          ns_per_pkt[key].push_back(total.first / total.second);
        }
      }
    });
    for (const auto& [key, samples] : ns_per_pkt) {
      out["censor." + key + ".ns_per_pkt"] = median(samples);
    }
    out["censor.pkts_per_trial"] = per(saw, recorded.size());
    out["censor.tcb_total"] = per(tcbs, recorded.size());
    out["censor.evicted_flows"] = evicted;
  }

  // 6. CensorSet::reset for every country, whatever the workload runs.
  for (const Country country : caya::all_countries()) {
    caya::CensorSet set(country, 1);
    std::vector<double> us;
    repeat_for(budget_s * 0.01, 200, 20'000, [&](std::size_t rep) {
      const std::int64_t t0 = now_ns();
      set.reset(rep + 2);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    });
    out["censor." + country_key(country) + ".reset_us"] = median(us);
  }

  // 7. Packet codec over the recorded censor-view packets.
  {
    constexpr std::size_t kMaxPackets = 2000;
    std::vector<Packet> packets;
    std::vector<caya::Bytes> wire;
    for (const RecordedTrial& trial : recorded) {
      for (const SawPacket& sp : trial.saw) {
        if (packets.size() >= kMaxPackets) break;
        caya::Bytes bytes = sp.packet.serialize();
        if (!Packet::try_parse(bytes)) continue;  // parse must not throw
        packets.push_back(sp.packet);
        wire.push_back(std::move(bytes));
      }
    }
    const std::size_t m = packets.size();
    checker.expect(m > 0, "the recorded trials give the codec probe packets");
    std::size_t sink = 0;
    std::vector<Packet> cold;  // copies with the checksum memo invalidated
    const auto reset_cold = [&] {
      cold = packets;
      for (Packet& p : cold) p.tcp_sum_invalidate();
    };
    reset_cold();
    const AllocCount a0 = alloc_count();
    for (std::size_t i = 0; i < m; ++i) {
      sink += packets[i].serialize().size();
      sink += Packet::parse(wire[i]).payload_size();
      sink += cold[i].tcp_checksum_valid() ? 1 : 0;
    }
    const AllocCount a1 = alloc_count();
    out["packet.allocs_per_op"] =
        per(static_cast<double>((a1 - a0).calls), 3 * m);

    std::vector<double> serialize_ns, parse_ns, checksum_ns;
    repeat_for(budget_s * 0.06, 3, 10'000, [&](std::size_t) {
      std::int64_t t0 = now_ns();
      for (const Packet& p : packets) sink += p.serialize().size();
      serialize_ns.push_back(per(static_cast<double>(now_ns() - t0), m));
      t0 = now_ns();
      for (const caya::Bytes& w : wire) sink += Packet::parse(w).payload_size();
      parse_ns.push_back(per(static_cast<double>(now_ns() - t0), m));
      reset_cold();
      t0 = now_ns();
      for (const Packet& p : cold) sink += p.tcp_checksum_valid() ? 1 : 0;
      checksum_ns.push_back(per(static_cast<double>(now_ns() - t0), m));
    });
    out["packet.serialize_ns"] = median(serialize_ns);
    out["packet.parse_ns"] = median(parse_ns);
    out["packet.checksum_ns"] = median(checksum_ns);
    g_sink = sink;
  }

  // 8. Strategy parsing and the Geneva engine over no-evasion server
  // packets.
  {
    std::vector<caya::Strategy> strategies;
    for (const std::string& text : strategy_texts) {
      try {
        strategies.push_back(caya::parse_strategy(text));
      } catch (const std::exception& e) {
        checker.expect(false, "strategy parses: " + text + ": " + e.what());
      }
    }
    std::vector<double> parse_ns;
    std::size_t sink = 0;
    repeat_for(budget_s * 0.03, 3, 10'000, [&](std::size_t) {
      const std::int64_t t0 = now_ns();
      for (const std::string& text : strategy_texts) {
        sink += caya::parse_strategy(text).size();
      }
      parse_ns.push_back(
          per(static_cast<double>(now_ns() - t0), strategy_texts.size()));
    });
    out["geneva.parse_ns"] = median(parse_ns);

    checker.expect(!server_packets.empty(),
                   "no-evasion trials give the engine probe server packets");
    std::vector<double> engine_ns;
    std::vector<Packet> produced;
    repeat_for(budget_s * 0.1, 3, 10'000, [&](std::size_t) {
      const std::int64_t t0 = now_ns();
      for (const caya::Strategy& strategy : strategies) {
        caya::Engine engine(&strategy, caya::Rng(7));
        for (const Packet& pkt : server_packets) {
          produced.clear();
          engine.process_outbound_into(pkt, produced);
          sink += produced.size();
        }
      }
      engine_ns.push_back(per(static_cast<double>(now_ns() - t0),
                              strategies.size() * server_packets.size()));
    });
    out["geneva.engine_ns_per_pkt"] = median(engine_ns);
    g_sink = sink;
  }

  // 9. Rng::fork plus the first draw: the seed and twist of a new engine.
  {
    constexpr std::size_t kForks = 1000;
    caya::Rng root(specs.front().config.seed);
    std::vector<double> fork_ns;
    std::uint64_t sink = 0;
    repeat_for(budget_s * 0.03, 5, 10'000, [&](std::size_t) {
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < kForks; ++k) {
        caya::Rng child = root.fork();
        sink += child.engine()();
      }
      fork_ns.push_back(per(static_cast<double>(now_ns() - t0), kForks));
    });
    out["util.rng_fork_ns"] = median(fork_ns);
    g_sink = sink;
  }

  // 10. The TCP floor: a bare two-endpoint exchange.
  {
    const caya::Bytes request = caya::to_bytes(
        "GET /?q=ultrasurf HTTP/1.1\r\nHost: example.com\r\n"
        "User-Agent: caya\r\n\r\n");
    const caya::Bytes response = caya::to_bytes(
        "HTTP/1.1 200 OK\r\nContent-Length: 43\r\n\r\n"
        "<html><body>the real content</body></html>");
    std::vector<double> us;
    bool ok = true;
    repeat_for(budget_s * 0.03, 20, 100'000, [&](std::size_t) {
      const std::int64_t t0 = now_ns();
      ok = bare_exchange(request, response) && ok;
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    });
    checker.expect(ok, "the bare TCP exchange delivers the whole response");
    out["tcpstack.bare_exchange_us"] = median(us);
  }
}

}  // namespace perfbench
