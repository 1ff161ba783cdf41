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
#include <string>
#include <vector>

#include "eval/rates.h"
#include "eval/strategies.h"
#include "eval/trial.h"
#include "netsim/event_loop.h"
#include "packet/packet.h"

// ---- counting allocator -----------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
// Allocations of any size but a TCP option list's: a std::vector holding
// one or two TcpOption entries, or a one- or two-byte option value (MSS,
// window scale).
std::atomic<std::uint64_t> g_other_allocs{0};

bool is_option_list_size(std::size_t size) {
  return size == 1 || size == 2 || size == sizeof(caya::TcpOption) ||
         size == 2 * sizeof(caya::TcpOption);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (!is_option_list_size(size)) {
    g_other_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (!is_option_list_size(size)) {
    g_other_allocs.fetch_add(1, std::memory_order_relaxed);
  }
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

/// Every cell Table 2 reports: each country x protocol, with no strategy
/// and with each published strategy the paper reports there.
struct TableCell {
  Country country;
  AppProtocol protocol;
  int strategy;  // 0 = no evasion
};

std::vector<TableCell> table2_cells() {
  std::vector<TableCell> cells;
  for (const AppProtocol protocol : all_protocols()) {
    cells.push_back({Country::kChina, protocol, 0});
    for (const PublishedStrategy& s : published_strategies()) {
      if (!s.china_reported.empty()) {
        cells.push_back({Country::kChina, protocol, s.id});
      }
    }
  }
  const struct {
    Country country;
    AppProtocol protocol;
    double PublishedStrategy::*reported;
  } rows[] = {
      {Country::kIndia, AppProtocol::kHttp,
       &PublishedStrategy::india_http_reported},
      {Country::kIran, AppProtocol::kHttp,
       &PublishedStrategy::iran_http_reported},
      {Country::kIran, AppProtocol::kHttps,
       &PublishedStrategy::iran_https_reported},
      {Country::kKazakhstan, AppProtocol::kHttp,
       &PublishedStrategy::kazakhstan_http_reported},
  };
  for (const auto& row : rows) {
    cells.push_back({row.country, row.protocol, 0});
    for (const PublishedStrategy& s : published_strategies()) {
      if (s.*row.reported >= 0) {
        cells.push_back({row.country, row.protocol, s.id});
      }
    }
  }
  return cells;
}

TEST(PacketPool, TrialAllocationsAreFlatAcrossIdenticalTrials) {
  // A warm substrate replaying a seed it has already run twice does the
  // same work again, and every buffer that work needs is already in the
  // thread's pools. What reset(seed) + run_connection still allocates (as
  // perfbench's eval.allocs_per_trial counts it) is the SYN and SYN+ACK
  // option lists, TcpHeader's std::vector<TcpOption> of the MSS and
  // window-scale values, and their copies: the same number every warm run,
  // and nothing of any other size. They go when TcpHeader keeps its
  // options inline (ROADMAP item 2); this test then expects zero.
  std::size_t checked = 0;
  for (const ImpairmentProfile profile :
       {ImpairmentProfile::kClean, ImpairmentProfile::kLossy}) {
    for (const TableCell& cell : table2_cells()) {
      Environment::Config config{.country = cell.country,
                                 .protocol = cell.protocol,
                                 .seed = 99 + checked};
      apply_profile(profile, config);
      ConnectionOptions options;
      if (cell.strategy != 0) {
        options.server_strategy = parsed_strategy(cell.strategy);
      }
      Environment env(config);
      std::uint64_t allocs[4] = {};
      std::uint64_t others[4] = {};
      for (int run = 0; run < 4; ++run) {
        const std::uint64_t before =
            g_alloc_calls.load(std::memory_order_relaxed);
        const std::uint64_t others_before =
            g_other_allocs.load(std::memory_order_relaxed);
        env.reset(config.seed);
        (void)env.run_connection(options);
        allocs[run] = g_alloc_calls.load(std::memory_order_relaxed) - before;
        others[run] =
            g_other_allocs.load(std::memory_order_relaxed) - others_before;
      }
      const std::string label = std::string(to_string(cell.country)) + "/" +
                                std::string(to_string(cell.protocol)) +
                                " published " +
                                std::to_string(cell.strategy) + ", profile " +
                                std::string(to_string(profile));
      // Runs 0 and 1 warm up; 2 and 3 are warm.
      EXPECT_EQ(others[2], 0u) << label;
      EXPECT_EQ(others[3], 0u) << label;
      EXPECT_EQ(allocs[3], allocs[2]) << label;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace caya
