#include "fuzz/oracle.h"

#include <algorithm>

#include "eval/censor_set.h"
#include "fuzz/mutator.h"

namespace caya {

namespace {

/// True when the packet is addressed between the innocuous flow's
/// endpoints, in either orientation — the shape a spoofed teardown or block
/// page aimed at that flow would have.
bool touches_innocuous(const Packet& pkt) {
  const bool forward = pkt.ip.src == innocuous_client() &&
                       pkt.ip.dst == innocuous_server() &&
                       pkt.tcp.sport == kInnocuousClientPort &&
                       pkt.tcp.dport == kInnocuousServerPort;
  const bool reverse = pkt.ip.src == innocuous_server() &&
                       pkt.ip.dst == innocuous_client() &&
                       pkt.tcp.sport == kInnocuousServerPort &&
                       pkt.tcp.dport == kInnocuousClientPort;
  return forward || reverse;
}

class OracleInjector : public Injector {
 public:
  void inject(Packet pkt, Direction) override {
    ++injected;
    if (touches_innocuous(pkt)) hit_innocuous = true;
  }
  [[nodiscard]] Time now() const override { return now_value; }

  std::size_t injected = 0;
  bool hit_innocuous = false;
  Time now_value = 0;
};

}  // namespace

OracleOutcome run_oracle(Country country, std::uint64_t seed,
                         const std::vector<PcapRecord>& hostile) {
  OracleOutcome out;
  // A fuzz campaign runs this once per iteration with the same country: the
  // recycled set skips rebuilding the boxes (and China's five-protocol
  // stack) 20k+ times per smoke run.
  CensorSet& censors = pooled_censor_set(country, seed);
  OfflineFeed feed(censors);
  OracleInjector injector;

  // Interleave: innocuous handshake first (so its state is established),
  // hostile records with the innocuous request spliced into the middle,
  // innocuous response + teardown last — censor state poisoned by hostile
  // bytes is at its richest when the bystander packets transit.
  const std::vector<PcapRecord> innocuous = make_innocuous_flow();
  std::vector<const PcapRecord*> schedule;
  std::vector<bool> is_innocuous;
  const std::size_t mid = hostile.size() / 2;
  auto add = [&](const PcapRecord& r, bool benign) {
    schedule.push_back(&r);
    is_innocuous.push_back(benign);
  };
  for (std::size_t i = 0; i < 3 && i < innocuous.size(); ++i) {
    add(innocuous[i], true);
  }
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    if (i == mid) {
      for (std::size_t j = 3; j < 4 && j < innocuous.size(); ++j) {
        add(innocuous[j], true);
      }
    }
    add(hostile[i], false);
  }
  for (std::size_t j = hostile.empty() ? 3 : 4; j < innocuous.size(); ++j) {
    add(innocuous[j], true);
  }

  Time clock = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const PcapRecord& record = *schedule[i];
    ++out.records;
    try {
      auto decoded = Packet::try_parse(record.data);
      out.decode.note(decoded.error);
      if (!decoded.ok()) continue;  // accounted fail-open; censors never see it
      const Packet& pkt = decoded.value;

      // Monotone clock: interleaving mixes two timestamp sequences.
      clock = std::max(clock, record.at);
      injector.now_value = clock;

      const bool innocuous_hit_before = injector.hit_innocuous;
      const OfflineFeed::Step step = feed.feed(pkt, injector);
      if (step.censored) ++out.censor_events;
      if (is_innocuous[i]) {
        // Any action against the bystander flow is a fail-closed verdict:
        // a drop by an in-path box, an injection aimed at its endpoints,
        // or the censored-flow counter advancing on its packet.
        if (step.dropped ||
            (injector.hit_innocuous && !innocuous_hit_before) ||
            step.censored) {
          out.fail_closed = true;
        }
      }
    } catch (const std::exception& e) {
      out.crashed = true;
      out.crash_what = e.what();
      break;
    } catch (...) {
      out.crashed = true;
      out.crash_what = "non-standard exception";
      break;
    }
  }
  out.injected = injector.injected;
  if (injector.hit_innocuous) out.fail_closed = true;
  out.state = censors.state_stats();
  return out;
}

}  // namespace caya
