// Packet-transport memory-model tests: copy-on-write payload sharing and
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
#include <vector>

#include "eval/trial.h"
#include "netsim/event_loop.h"
#include "packet/packet.h"

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

TEST(PacketPool, PayloadInStaticStorageIsReleasedAfterThePools) {
  // The main thread destroys its thread-locals, the rep pool and the buffer
  // arena among them, before the process destroys its statics, so this
  // payload is released at exit after both pools are gone. Two payloads
  // released first fill the rep pool's free list, so a release into the
  // destroyed pool would grow it and free its freed storage again.
  static const Packet kept = test_packet(to_bytes("outlives the pools"));
  {
    const Payload first(to_bytes("first"));
    const Payload second(to_bytes("second"));
  }
  EXPECT_EQ(kept.payload.size(), 18u);
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
