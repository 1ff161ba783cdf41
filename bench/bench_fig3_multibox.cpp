// Regenerates Figure 3 / §6: evidence that China runs a separate censorship
// box (with its own network stack) per application protocol.
//
// Part 1 — the anomaly: strategies that operate purely at the TCP layer
// nevertheless succeed at very different rates per application protocol.
// Under a single shared TCP stack the columns would match.
//
// Part 2 — colocation: TTL-limited forbidden probes elicit censor responses
// at the same hop count for every protocol, so the distinct boxes sit at the
// same place in the path.
#include <algorithm>
#include <cstdio>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/parser.h"

namespace caya {
namespace {

void per_protocol_divergence() {
  std::printf("Part 1: per-protocol success of TCP-only strategies "
              "(100 trials/cell)\n\n");
  std::printf("%-34s", "strategy");
  for (const auto proto : all_protocols()) {
    std::printf(" %6s", std::string(to_string(proto)).c_str());
  }
  std::printf("   max-min\n");

  std::uint64_t seed = 50'000;
  for (const int id : {1, 3, 5, 8}) {
    const auto& s = published_strategy(id);
    std::printf("%2d %-31s", id, s.name.c_str());
    double lo = 1.0;
    double hi = 0.0;
    for (const auto proto : all_protocols()) {
      RateOptions options;
      options.trials = 100;
      options.base_seed = seed += 1000;
      const double rate =
          measure_rate(Country::kChina, proto, parsed_strategy(id), options)
              .rate();
      lo = std::min(lo, rate);
      hi = std::max(hi, rate);
      std::printf(" %5.0f%%", rate * 100);
    }
    std::printf("   %5.0f%%\n", (hi - lo) * 100);
  }
  std::printf("\nTCP-layer bugs shared by one stack would give flat rows; "
              "spreads of 40-90 points\nindicate distinct per-protocol "
              "stacks (Figure 3b).\n\n");
}

/// The paper's instrumented client: the dialogue proceeds untouched, but
/// any packet carrying the forbidden token gets its TTL clamped so it
/// crosses the censor without reaching the server.
class TtlProbe : public PacketProcessor {
 public:
  TtlProbe(int ttl, std::string token)
      : ttl_(static_cast<std::uint8_t>(ttl)), token_(std::move(token)) {}
  void process_outbound_into(Packet pkt, std::vector<Packet>& out) override {
    if (contains(std::span(pkt.payload), token_)) pkt.ip.ttl = ttl_;
    out.push_back(std::move(pkt));
  }
  void process_inbound_into(Packet pkt, std::vector<Packet>& out) override {
    out.push_back(std::move(pkt));
  }

 private:
  std::uint8_t ttl_;
  std::string token_;
};

std::string forbidden_token(AppProtocol proto) {
  switch (proto) {
    case AppProtocol::kDnsOverTcp:
    case AppProtocol::kHttps:
      return "wikipedia";
    case AppProtocol::kSmtp:
      return "xiazai@upup8.com";
    default:
      return "ultrasurf";
  }
}

void ttl_probes() {
  std::printf("Part 2: TTL-limited forbidden probes (censor hop location "
              "per protocol)\n\n");
  for (const auto proto : all_protocols()) {
    int hops = -1;
    for (int ttl = 1; ttl <= 12 && hops < 0; ++ttl) {
      // Repeat each probe a few times so a baseline censor miss cannot be
      // mistaken for "no censor at this hop".
      for (std::uint64_t attempt = 0; attempt < 8 && hops < 0; ++attempt) {
        Environment env({.country = Country::kChina,
                         .protocol = proto,
                         .seed = 42 + attempt * 100 +
                                 static_cast<std::uint64_t>(ttl)});
        TtlProbe probe(ttl, forbidden_token(proto));
        ConnectionOptions options;
        options.client_processor = &probe;
        const TrialResult result = env.run_connection(options);
        if (result.censor_events > 0) hops = ttl;
      }
    }
    std::printf("  %-6s censor responds at TTL %d\n",
                std::string(to_string(proto)).c_str(), hops);
  }
  std::printf("\nIdentical hop counts across protocols: the boxes are "
              "colocated (§6).\n");
}

void single_box_counterfactual() {
  std::printf("\nPart 3 (ablation): the same strategies against a "
              "counterfactual SINGLE-box GFW\n(one shared TCP stack for all "
              "protocols, Figure 3a)\n\n");
  std::printf("%-34s", "strategy");
  for (const auto proto : all_protocols()) {
    std::printf(" %6s", std::string(to_string(proto)).c_str());
  }
  std::printf("   max-min\n");

  std::uint64_t seed = 150'000;
  for (const int id : {1, 3, 5, 8}) {
    const auto& s = published_strategy(id);
    std::printf("%2d %-31s", id, s.name.c_str());
    double lo = 1.0;
    double hi = 0.0;
    for (const auto proto : all_protocols()) {
      RateCounter counter;
      for (int i = 0; i < 100; ++i) {
        Environment::Config config;
        config.country = Country::kChina;
        config.protocol = proto;
        config.seed = (seed += 7) * 31;
        config.china_architecture = ChinaCensor::Architecture::kSingleBox;
        ConnectionOptions options;
        options.server_strategy = parsed_strategy(id);
        counter.record(run_trial(config, options).success);
      }
      lo = std::min(lo, counter.rate());
      hi = std::max(hi, counter.rate());
      std::printf(" %5.0f%%", counter.rate() * 100);
    }
    std::printf("   %5.0f%%\n", (hi - lo) * 100);
  }
  std::printf("\nWith one shared stack the rows flatten (residual spread "
              "comes from protocol\nmessage shapes, e.g. DNS retries). The "
              "measured divergence in Part 1 is\nincompatible with this "
              "architecture -- hence Figure 3b.\n");
}

}  // namespace
}  // namespace caya

int main() {
  std::printf("Figure 3 / §6: single versus multiple censorship boxes.\n\n");
  caya::per_protocol_divergence();
  caya::ttl_probes();
  caya::single_box_counterfactual();
  return 0;
}
