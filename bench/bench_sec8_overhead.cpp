// §8 deployment overhead: the strategies cost at most a few extra handshake
// packets, and the engine itself adds negligible per-packet work. Measured
// with google-benchmark:
//   * engine throughput per strategy (packets/second through the shim),
//   * strategy amplification (packets emitted per SYN+ACK),
//   * DSL parse cost,
//   * full end-to-end trial latency.
#include <benchmark/benchmark.h>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "geneva/engine.h"
#include "geneva/parser.h"

namespace caya {
namespace {

Packet synack() {
  Packet pkt = make_tcp_packet(Ipv4Address::parse("93.184.216.34"), 80,
                               Ipv4Address::parse("101.6.8.2"), 40000,
                               tcpflag::kSyn | tcpflag::kAck, 50000, 10001);
  pkt.tcp.set_option(TcpOption::kWindowScale, {7});
  return pkt;
}

void BM_EngineSynAck(benchmark::State& state) {
  const int id = static_cast<int>(state.range(0));
  Engine engine(parsed_strategy(id), Rng(7));
  const Packet pkt = synack();
  std::size_t packets_out = 0;
  std::vector<Packet> out;
  for (auto _ : state) {
    out.clear();
    engine.process_outbound_into(pkt, out);
    packets_out += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["amplification"] =
      static_cast<double>(packets_out) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_EngineSynAck)->DenseRange(1, 11)->Unit(benchmark::kNanosecond);

void BM_EngineNonTriggered(benchmark::State& state) {
  Engine engine(parsed_strategy(1), Rng(7));
  Packet pkt = synack();
  pkt.tcp.flags = tcpflag::kPsh | tcpflag::kAck;  // does not match trigger
  std::vector<Packet> out;
  for (auto _ : state) {
    out.clear();
    engine.process_outbound_into(pkt, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineNonTriggered)->Unit(benchmark::kNanosecond);

void BM_ParseStrategy(benchmark::State& state) {
  const std::string dsl =
      published_strategy(static_cast<int>(state.range(0))).dsl;
  for (auto _ : state) {
    Strategy s = parse_strategy(dsl);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ParseStrategy)->Arg(1)->Arg(6)->Arg(10);

void BM_PacketSerializeParse(benchmark::State& state) {
  const Packet pkt = synack();
  for (auto _ : state) {
    const Bytes wire = pkt.serialize();
    Packet parsed = Packet::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PacketSerializeParse);

void BM_FullTrial(benchmark::State& state) {
  const int id = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Environment env({.country = Country::kChina,
                     .protocol = AppProtocol::kHttp,
                     .seed = seed++});
    ConnectionOptions options;
    options.server_strategy = parsed_strategy(id);
    const TrialResult result = env.run_connection(options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullTrial)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace caya

BENCHMARK_MAIN();
