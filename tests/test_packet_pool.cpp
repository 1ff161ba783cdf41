// Packet-transport memory-model tests: copy-on-write payload sharing, the
// cached checksum word sum, the RFC 1624 incremental TCP-checksum memo, and
// allocation regressions on the steady-state packet path. The allocation
// tests use a counting global allocator local to this binary (same technique
// as perfbench's eval.allocs_per_trial), so they catch a reintroduced
// per-event or per-trial allocation as a test failure rather than a silent
// bench regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "eval/trial.h"
#include "netsim/event_loop.h"
#include "packet/field.h"
#include "packet/packet.h"
#include "util/rng.h"
#include "util/selfcheck.h"

// ---- counting allocator -----------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace caya {
namespace {

Packet test_packet(Bytes payload = {}) {
  return make_tcp_packet(Ipv4Address::parse("10.0.0.1"), 40000,
                         Ipv4Address::parse("10.0.0.2"), 80,
                         tcpflag::kPsh | tcpflag::kAck, 1000, 2000,
                         std::move(payload));
}

/// RFC 1071 fold over big-endian byte pairs, the reference for
/// Payload::word_sum().
std::uint16_t reference_word_sum(const Payload& payload) {
  std::uint32_t sum = 0;
  const std::size_t n = payload.size();
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    sum += static_cast<std::uint32_t>(payload[i] << 8 | payload[i + 1]);
  }
  if (n % 2 != 0) sum += static_cast<std::uint32_t>(payload[n - 1] << 8);
  while (sum >> 16 != 0) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

/// The checksum a fresh serialization carries: the oracle the memo must
/// match bit-for-bit.
std::uint16_t serialized_tcp_checksum(const Packet& pkt) {
  const Bytes segment =
      pkt.tcp.serialize(pkt.ip.src, pkt.ip.dst, pkt.payload,
                        /*compute_checksum=*/true, !pkt.tcp_offset_overridden);
  return static_cast<std::uint16_t>(segment[16] << 8 | segment[17]);
}

TEST(PacketPool, PacketCopiesShareThePayloadBuffer) {
  Packet a = test_packet(to_bytes("GET / HTTP/1.1\r\n\r\n"));
  Packet b = a;
  EXPECT_TRUE(a.payload.shares_buffer_with(b.payload));
  EXPECT_EQ(a.payload.data(), b.payload.data());

  // Mutation detaches the writer; the reader keeps the original bytes.
  Bytes& raw = b.payload.mutate();
  EXPECT_FALSE(a.payload.shares_buffer_with(b.payload));
  raw[0] = 'P';
  EXPECT_EQ(a.payload[0], 'G');
  EXPECT_EQ(b.payload[0], 'P');
  EXPECT_EQ(a.payload.size(), b.payload.size());
}

TEST(PacketPool, WordSumMatchesReferenceFold) {
  Rng rng(7);
  for (std::size_t len : {0u, 1u, 2u, 3u, 17u, 64u, 1461u}) {
    const Payload payload(rng.bytes(len));
    EXPECT_EQ(payload.word_sum(), reference_word_sum(payload))
        << "len=" << len;
  }
}

TEST(PacketPool, WordSumIsInvalidatedByMutate) {
  Payload payload(to_bytes("abcdef"));
  const std::uint16_t before = payload.word_sum();
  payload.mutate()[5] = 'X';
  EXPECT_EQ(payload.word_sum(), reference_word_sum(payload));
  EXPECT_NE(payload.word_sum(), before);
}

// The memo is warmed, then hammered with the same single-field tampers the
// Geneva engine applies; after each batch the incrementally-maintained
// checksum must equal the full fold over a fresh serialization.
TEST(PacketPool, IncrementalChecksumMatchesFullFoldUnderRandomTampers) {
  std::vector<const Field*> tcp_fields;
  for (const char* name :
       {"sport", "dport", "seq", "ack", "flags", "window", "urgptr"}) {
    tcp_fields.push_back(&lookup_field(Proto::kTcp, name));
  }
  Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    Packet pkt = test_packet(rng.bytes(rng.index(64)));
    if (rng.chance(0.3)) pkt.tcp.set_option(TcpOption::kMss, {0x05, 0xb4});

    // Warm the memo, as delivery-time checksum validation does.
    ASSERT_EQ(pkt.computed_tcp_checksum(), serialized_tcp_checksum(pkt));

    for (int tamper = 0; tamper < 3; ++tamper) {
      const double which = static_cast<double>(rng.index(10));
      if (which < 7) {
        rng.pick(tcp_fields)->corrupt(pkt, rng);
      } else if (which < 8) {
        // Pseudo-header words flow through the same RFC 1624 path.
        lookup_field(Proto::kIp, rng.chance(0.5) ? "src" : "dst")
            .corrupt(pkt, rng);
      } else if (which < 9) {
        lookup_field(Proto::kTcp, "dataofs").corrupt(pkt, rng);  // invalidates
      } else {
        lookup_field(Proto::kTcp, "options-mss").corrupt(pkt, rng);  // ditto
      }
    }
    EXPECT_EQ(pkt.computed_tcp_checksum(), serialized_tcp_checksum(pkt))
        << "round " << round << ": " << pkt.summary();
  }
}

TEST(PacketPool, SelfCheckOracleAcceptsTamperedPackets) {
  // With the oracle armed, computed_tcp_checksum() itself cross-checks the
  // memo against the full fold and throws SelfCheckError on divergence.
  set_selfcheck_enabled(true);
  Packet pkt = test_packet(to_bytes("hello censor"));
  EXPECT_NO_THROW((void)pkt.computed_tcp_checksum());
  const auto set = [&pkt](Proto proto, std::string_view name,
                          std::string value) {
    const Field& field = lookup_field(proto, name);
    field.replace(pkt, field.parse(std::move(value)));
  };
  set(Proto::kTcp, "seq", "123456789");
  set(Proto::kTcp, "window", "17");
  set(Proto::kIp, "src", "203.0.113.9");
  EXPECT_NO_THROW((void)pkt.computed_tcp_checksum());
  set_selfcheck_enabled(false);
}

struct Recirculator : PacketEventSink {
  EventLoop* loop = nullptr;
  int remaining = 0;
  // The last packet parks here instead of dying: releasing a uniquely-owned
  // payload pushes its buffer into the arena free list, which is an
  // amortized one-time growth, not steady-state work.
  Packet parked;
  void on_packet_event(Packet&& pkt, std::uint32_t tag) override {
    if (remaining-- > 0) {
      loop->schedule_packet_in(1, std::move(pkt), tag);
    } else {
      parked = std::move(pkt);
    }
  }
};

TEST(PacketPool, PacketLaneIsAllocationFreeInSteadyState) {
  EventLoop loop;
  Recirculator sink;
  sink.loop = &loop;
  loop.set_packet_sink(&sink);

  Packet pkt = test_packet(to_bytes("steady-state payload"));

  // Warmup: let the heap, the packet-slot store, and the payload pools
  // reach capacity.
  sink.remaining = 64;
  loop.schedule_packet_in(1, pkt, 1);
  loop.run();

  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  sink.remaining = 1000;
  loop.schedule_packet_in(1, std::move(pkt), 1);
  loop.run();
  const std::uint64_t after = g_alloc_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "recirculating a packet through the event loop allocated";
}

TEST(PacketPool, TrialAllocationsAreFlatAcrossIdenticalTrials) {
  // Fresh same-seed Environments do identical work; once the per-thread
  // buffer/rep pools are warm (trial 0), every later trial must allocate
  // exactly the same amount. A drifting count means per-trial state is
  // leaking into a global pool or a cache is being defeated.
  ConnectionOptions options;
  options.record_trace = false;
  std::vector<std::uint64_t> per_trial;
  for (int trial = 0; trial < 4; ++trial) {
    const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
    Environment env({.country = Country::kChina,
                     .protocol = AppProtocol::kHttp,
                     .seed = 99});
    const TrialResult result = env.run_connection(options);
    EXPECT_FALSE(result.timed_out);
    per_trial.push_back(g_alloc_calls.load(std::memory_order_relaxed) -
                        before);
  }
  EXPECT_EQ(per_trial[2], per_trial[3])
      << "per-trial allocation count is not flat: " << per_trial[2] << " vs "
      << per_trial[3];
}

}  // namespace
}  // namespace caya
