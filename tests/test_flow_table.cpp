// FlowTable: the shared per-flow state stage every censor stands on.
// Covers the properties the censor port relies on: collision survival,
// generation-based reset, deterministic insertion-order iteration, erase /
// tombstone probing, growth, and the single key_for orientation rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "censor/core/flow_table.h"
#include "util/rng.h"

namespace caya {
namespace {

FlowKey key_n(std::uint32_t n) {
  return FlowKey{.client_addr = 0x0A000000u + n,
                 .client_port = static_cast<std::uint16_t>(40000 + (n % 1000)),
                 .server_addr = 0x5DB8D822u,
                 .server_port = 80};
}

TEST(FlowTable, InsertFindErase) {
  FlowTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(key_n(1)), nullptr);

  auto [state, inserted] = table.try_emplace(key_n(1), 42);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*state, 42);
  EXPECT_EQ(table.size(), 1u);

  auto [again, inserted_again] = table.try_emplace(key_n(1), 99);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 42);  // existing state untouched

  table[key_n(2)] = 7;
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(key_n(2)), nullptr);
  EXPECT_EQ(*table.find(key_n(2)), 7);

  EXPECT_TRUE(table.erase(key_n(1)));
  EXPECT_FALSE(table.erase(key_n(1)));
  EXPECT_EQ(table.find(key_n(1)), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, CollisionsResolveByProbing) {
  // Far more keys than the initial 64 slots guarantees probe chains and at
  // least one growth; every key must remain reachable throughout.
  FlowTable<std::uint32_t> table;
  constexpr std::uint32_t kFlows = 2000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    auto [state, inserted] = table.try_emplace(key_n(i), i);
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(*state, i);
  }
  EXPECT_EQ(table.size(), kFlows);
  EXPECT_GT(table.capacity(), kFlows);  // grew past the initial 64
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const std::uint32_t* state = table.find(key_n(i));
    ASSERT_NE(state, nullptr) << i;
    EXPECT_EQ(*state, i);
  }
}

TEST(FlowTable, EraseLeavesProbeChainsIntact) {
  // Erasing a key in the middle of a probe chain must not hide keys that
  // were placed past it (tombstones keep the chain connected).
  FlowTable<int> table;
  for (std::uint32_t i = 0; i < 500; ++i) table[key_n(i)] = 1;
  for (std::uint32_t i = 0; i < 500; i += 2) {
    ASSERT_TRUE(table.erase(key_n(i)));
  }
  for (std::uint32_t i = 1; i < 500; i += 2) {
    ASSERT_NE(table.find(key_n(i)), nullptr) << i;
  }
  for (std::uint32_t i = 0; i < 500; i += 2) {
    ASSERT_EQ(table.find(key_n(i)), nullptr) << i;
  }
  // Re-inserting erased keys reuses tombstoned slots.
  for (std::uint32_t i = 0; i < 500; i += 2) {
    auto [state, inserted] = table.try_emplace(key_n(i), 2);
    ASSERT_TRUE(inserted);
  }
  EXPECT_EQ(table.size(), 500u);
}

TEST(FlowTable, ResetInvalidatesByGeneration) {
  FlowTable<int> table;
  for (std::uint32_t i = 0; i < 100; ++i) table[key_n(i)] = 1;
  const std::size_t capacity_before = table.capacity();

  table.reset();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.empty());
  // reset() does not touch the slot array — stale generations read as empty.
  EXPECT_EQ(table.capacity(), capacity_before);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.find(key_n(i)), nullptr) << i;
  }

  // The table is fully usable after reset; stale slots get reclaimed.
  for (std::uint32_t i = 0; i < 100; ++i) table[key_n(i)] = 2;
  EXPECT_EQ(table.size(), 100u);
  ASSERT_NE(table.find(key_n(3)), nullptr);
  EXPECT_EQ(*table.find(key_n(3)), 2);
}

TEST(FlowTable, IterationFollowsInsertionOrder) {
  // for_each order is the insertion order — independent of hash values, and
  // stable across erases and rehashes.
  FlowTable<int> table;
  const std::vector<std::uint32_t> order = {17, 3, 999, 42, 7, 512, 1};
  for (const std::uint32_t n : order) table[key_n(n)] = static_cast<int>(n);

  std::vector<std::uint32_t> seen;
  table.for_each([&](const FlowKey& key, const int&) {
    seen.push_back(key.client_addr - 0x0A000000u);
  });
  EXPECT_EQ(seen, order);

  // Erased entries vanish from iteration but the relative order holds.
  table.erase(key_n(999));
  table.erase(key_n(17));
  seen.clear();
  table.for_each([&](const FlowKey& key, const int&) {
    seen.push_back(key.client_addr - 0x0A000000u);
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 42, 7, 512, 1}));

  // Force a rehash; insertion order must survive the rebuild.
  for (std::uint32_t n = 2000; n < 2100; ++n) table[key_n(n)] = 0;
  seen.clear();
  table.for_each([&](const FlowKey& key, const int&) {
    seen.push_back(key.client_addr - 0x0A000000u);
  });
  ASSERT_GE(seen.size(), 5u);
  EXPECT_EQ(seen[0], 3u);
  EXPECT_EQ(seen[1], 42u);
  EXPECT_EQ(seen[2], 7u);
  EXPECT_EQ(seen[3], 512u);
  EXPECT_EQ(seen[4], 1u);
}

TEST(FlowTable, DeterministicAcrossInsertionOrders) {
  // Same key set, different insertion orders: lookups agree; each table
  // iterates in its *own* insertion order (the order is the log, not the
  // hash).
  FlowTable<int> forward;
  FlowTable<int> backward;
  for (std::uint32_t i = 0; i < 300; ++i) forward[key_n(i)] = 1;
  for (std::uint32_t i = 300; i-- > 0;) backward[key_n(i)] = 1;
  EXPECT_EQ(forward.size(), backward.size());
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_NE(forward.find(key_n(i)), nullptr);
    EXPECT_NE(backward.find(key_n(i)), nullptr);
  }
  std::vector<std::uint32_t> fwd_order;
  forward.for_each([&](const FlowKey& key, const int&) {
    fwd_order.push_back(key.client_addr - 0x0A000000u);
  });
  std::vector<std::uint32_t> bwd_order;
  backward.for_each([&](const FlowKey& key, const int&) {
    bwd_order.push_back(key.client_addr - 0x0A000000u);
  });
  EXPECT_EQ(fwd_order.front(), 0u);
  EXPECT_EQ(bwd_order.front(), 299u);
}

TEST(FlowTable, KeyForOrientsBothDirectionsIdentically) {
  const Ipv4Address client = Ipv4Address::parse("10.0.0.1");
  const Ipv4Address server = Ipv4Address::parse("93.184.216.34");
  const Packet c2s =
      make_tcp_packet(client, 40000, server, 80, tcpflag::kSyn, 100, 0);
  const Packet s2c = make_tcp_packet(server, 80, client, 40000,
                                     tcpflag::kSyn | tcpflag::kAck, 500, 101);

  const FlowKey from_c2s =
      FlowTable<int>::key_for(c2s, Direction::kClientToServer);
  const FlowKey from_s2c =
      FlowTable<int>::key_for(s2c, Direction::kServerToClient);
  EXPECT_EQ(from_c2s, from_s2c);
  EXPECT_EQ(from_c2s.client_addr, client.value());
  EXPECT_EQ(from_c2s.client_port, 40000);
  EXPECT_EQ(from_c2s.server_addr, server.value());
  EXPECT_EQ(from_c2s.server_port, 80);
}

TEST(FlowTable, HashCoversEveryKeyField) {
  // Keys differing in exactly one field must hash differently (catches a
  // field accidentally dropped from the word mix).
  const FlowKey base = key_n(1);
  FlowKey k = base;
  k.client_addr ^= 1;
  EXPECT_NE(detail::flow_key_hash(base), detail::flow_key_hash(k));
  k = base;
  k.client_port ^= 1;
  EXPECT_NE(detail::flow_key_hash(base), detail::flow_key_hash(k));
  k = base;
  k.server_addr ^= 1;
  EXPECT_NE(detail::flow_key_hash(base), detail::flow_key_hash(k));
  k = base;
  k.server_port ^= 1;
  EXPECT_NE(detail::flow_key_hash(base), detail::flow_key_hash(k));
}

TEST(FlowTable, MatchesMapModelUnderRandomOperations) {
  // Differential check against a std::map plus an insertion-order log. A
  // seeded mix of inserts, lookups, erases and resets over 300 keys with a
  // 48-flow budget makes eviction, tombstones and rehash all occur; the
  // table must agree with the model on every lookup, size and eviction
  // count, and on the for_each order.
  constexpr std::size_t kBudget = 48;
  std::vector<FlowKey> keys;
  for (std::uint32_t i = 0; i < 300; ++i) {
    keys.push_back(
        {.client_addr = 0x0A000000u + i % 17,
         .client_port = static_cast<std::uint16_t>(40000 + i),
         .server_addr = 0x5DB8D822u + i % 3,
         .server_port = static_cast<std::uint16_t>(i % 2 == 0 ? 80 : 443)});
  }
  FlowTable<int> table;
  table.set_flow_budget(kBudget);
  std::map<FlowKey, int> model;
  std::vector<FlowKey> order;  // live keys, oldest first
  std::uint64_t evicted = 0;
  Rng rng(29);
  for (int op = 0; op < 20000; ++op) {
    const FlowKey& key = keys[rng.index(keys.size())];
    const std::uint64_t roll = rng.uniform(0, 199);
    if (roll < 90) {
      const bool absent = !model.contains(key);
      if (absent) {
        if (model.size() >= kBudget) {
          model.erase(order.front());
          order.erase(order.begin());
          ++evicted;
        }
        model.emplace(key, op);
        order.push_back(key);
      }
      const auto [state, inserted] = table.try_emplace(key, op);
      ASSERT_EQ(inserted, absent) << op;
      ASSERT_EQ(*state, model.at(key)) << op;
    } else if (roll < 150) {
      // A lookup only: compared below like every other operation's key.
    } else if (roll < 199) {
      const bool present = model.erase(key) == 1;
      if (present) order.erase(std::ranges::find(order, key));
      ASSERT_EQ(table.erase(key), present) << op;
    } else {
      table.reset();
      model.clear();
      order.clear();
    }

    const int* found = table.find(key);
    const auto it = model.find(key);
    ASSERT_EQ(found != nullptr, it != model.end()) << op;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second) << op;
    }
    ASSERT_EQ(table.size(), model.size()) << op;
    ASSERT_EQ(table.evicted(), evicted) << op;
    if (op % 100 == 99) {
      std::vector<std::pair<FlowKey, int>> scanned;
      table.for_each([&](const FlowKey& k, const int& v) {
        scanned.emplace_back(k, v);
      });
      ASSERT_EQ(scanned.size(), order.size()) << op;
      for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_EQ(scanned[i].first, order[i]) << op << " at " << i;
        ASSERT_EQ(scanned[i].second, model.at(order[i])) << op << " at " << i;
      }
    }
  }
  EXPECT_GT(evicted, 1000u);
  EXPECT_GT(table.capacity(), 64u);  // rehashed into a larger index
}

}  // namespace
}  // namespace caya
