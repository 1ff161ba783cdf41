// Shared per-flow state table for censor models — stage 1 of the censor
// pipeline (flow table -> reassembler -> trigger -> verdict).
//
// Every censor box keeps some state keyed by the directed flow (a TCB, a
// blackhole expiry, an interception record). The pre-pipeline censors each
// hand-rolled this with a std::map<FlowKey, ...>; FlowTable replaces those
// with one open-addressing hash table (one 64-bit mix of the flow key's
// packed words, linear probing) tuned for the per-packet hot path:
//
//   * find() is a hash + short probe instead of a red-black-tree descent —
//     the lookup every censor performs for every packet of every trial.
//   * reset() is O(1): bumping the table generation invalidates every slot
//     at once, so clearing censor state between trials costs nothing even
//     after a large campaign populated the table.
//   * Iteration (for_each) runs in *insertion order*, independent of hash
//     seeding or table size — anything derived from a scan (selfcheck
//     output, traces) is deterministic across runs and across rehashes.
//
// key_for() is the single client-designation rule shared by every censor:
// the client end of a flow is whichever endpoint sits on the client side of
// the path — the source of a client->server packet, the destination of a
// server->client packet. (The censors' real-world asymmetry about *who can
// tear down a TCB* — §3 — lives in the censor models, not in the key.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "censor/flow.h"
#include "netsim/endpoint.h"
#include "packet/packet.h"
#include "util/rng.h"

namespace caya {

namespace detail {

/// splitmix64 over the key's two packed words: the addresses side by side,
/// xored with the ports spread by an odd multiplier. Each packing is
/// injective and the multiply and splitmix64 are bijections, so keys that
/// differ in one field always hash apart. Built from the fields, never from
/// struct memory, whose padding bytes would make the hash nondeterministic.
[[nodiscard]] inline std::uint64_t flow_key_hash(const FlowKey& key) noexcept {
  const std::uint64_t addrs =
      std::uint64_t{key.client_addr} << 32 | key.server_addr;
  const std::uint64_t ports =
      std::uint64_t{key.client_port} << 16 | key.server_port;
  std::uint64_t state = addrs ^ ports * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

}  // namespace detail

template <typename State>
class FlowTable {
 public:
  /// The single client-designation rule (see file comment).
  [[nodiscard]] static FlowKey key_for(const Packet& pkt,
                                       Direction dir) noexcept {
    if (dir == Direction::kClientToServer) {
      return {pkt.ip.src.value(), pkt.tcp.sport, pkt.ip.dst.value(),
              pkt.tcp.dport};
    }
    return {pkt.ip.dst.value(), pkt.tcp.dport, pkt.ip.src.value(),
            pkt.tcp.sport};
  }

  FlowTable() { slots_.resize(kInitialSlots); }

  /// Pointer to the flow's state, or nullptr when absent. Never invalidated
  /// by other lookups; invalidated by insertions, erases, and reset().
  [[nodiscard]] State* find(const FlowKey& key) noexcept {
    const std::size_t slot = find_slot(key);
    return slot == kNoSlot ? nullptr : &entries_[slots_[slot].entry].state;
  }
  [[nodiscard]] const State* find(const FlowKey& key) const noexcept {
    const std::size_t slot = find_slot(key);
    return slot == kNoSlot ? nullptr : &entries_[slots_[slot].entry].state;
  }

  /// Find-or-default-create (std::map operator[] semantics).
  [[nodiscard]] State& operator[](const FlowKey& key) {
    return *try_emplace(key).first;
  }

  /// Inserts a default-constructed state unless the key is already present.
  /// Returns {state, inserted}. At the flow budget the oldest live flow is
  /// evicted first (deterministic: insertion order, independent of hashing),
  /// so a SYN flood recycles state instead of growing it — the fail-open
  /// bias a real censor exhibits under state exhaustion.
  std::pair<State*, bool> try_emplace(const FlowKey& key) {
    return try_emplace(key, State{});
  }
  std::pair<State*, bool> try_emplace(const FlowKey& key, State state) {
    if (State* existing = find(key)) return {existing, false};
    if (budget_ != 0 && live_ >= budget_) evict_oldest();
    maybe_grow();
    const std::uint32_t index = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{key, std::move(state), true});
    place(key, index);
    ++live_;
    return {&entries_.back().state, true};
  }

  /// Removes the flow; returns true when it was present.
  bool erase(const FlowKey& key) noexcept {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return false;
    entries_[slots_[slot].entry].live = false;
    entries_[slots_[slot].entry].state = State{};  // drop heavy state now
    slots_[slot].state = SlotState::kTombstone;
    --live_;
    return true;
  }

  /// Number of live flows (erased entries excluded, censor-"dead" TCBs — a
  /// per-censor notion — included, matching the std::map-era tcb_count()).
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Drops every flow. O(1) on the index side: bumping the generation makes
  /// every slot stale at once (a stale slot reads as empty).
  void reset() noexcept {
    entries_.clear();
    live_ = 0;
    used_slots_ = 0;
    evict_cursor_ = 0;
    ++generation_;
  }

  /// Visits (key, state) pairs in insertion order — deterministic across
  /// runs, table sizes, and rehashes.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      if (entry.live) fn(entry.key, entry.state);
    }
  }

  /// Index capacity, for tests and the bench's occupancy accounting.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Hard cap on live flows (0 = unbounded). The default is far above any
  /// legitimate trial's flow count, so eviction only engages under floods.
  void set_flow_budget(std::size_t max_flows) noexcept { budget_ = max_flows; }

  /// Flows evicted to stay within the budget, cumulative across reset()
  /// (reset drops the flows, not the ledger).
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }

  /// Zeroes the eviction ledger. Only full substrate reinitialization calls
  /// this: a recycled table must report the same (zero) eviction history a
  /// freshly constructed one would. The mid-trial fault flush deliberately
  /// keeps the ledger (see evicted()).
  void clear_eviction_ledger() noexcept { evicted_ = 0; }

 private:
  enum class SlotState : std::uint8_t { kEmpty, kFull, kTombstone };

  struct Slot {
    std::uint64_t generation = 0;
    std::uint32_t entry = 0;
    SlotState state = SlotState::kEmpty;
  };
  struct Entry {
    FlowKey key;
    State state;
    bool live = true;
  };

  static constexpr std::size_t kInitialSlots = 64;  // power of two
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t find_slot(const FlowKey& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::flow_key_hash(key) & mask;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_ ||
          slot.state == SlotState::kEmpty) {
        return kNoSlot;  // end of probe chain
      }
      if (slot.state == SlotState::kFull &&
          entries_[slot.entry].key == key) {
        return i;
      }
      i = (i + 1) & mask;  // tombstone or other key: keep probing
    }
  }

  void place(const FlowKey& key, std::uint32_t entry_index) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::flow_key_hash(key) & mask;
    while (true) {
      Slot& slot = slots_[i];
      const bool stale = slot.generation != generation_;
      if (stale || slot.state != SlotState::kFull) {
        if (stale || slot.state == SlotState::kEmpty) ++used_slots_;
        slot = Slot{generation_, entry_index, SlotState::kFull};
        return;
      }
      i = (i + 1) & mask;
    }
  }

  // Evicts the oldest live flow. The cursor only ever moves forward over the
  // insertion-order log (and rewinds on compaction), so a sustained flood
  // pays O(1) amortized per eviction.
  void evict_oldest() noexcept {
    while (evict_cursor_ < entries_.size()) {
      Entry& entry = entries_[evict_cursor_];
      ++evict_cursor_;
      if (!entry.live) continue;
      erase(entry.key);
      ++evicted_;
      return;
    }
  }

  void maybe_grow() {
    // Rehash when the probe structure degrades (filled + tombstoned slots
    // past ~70%) or when erased entries dominate the entry log. Rebuilding
    // re-seats live entries in insertion order, so iteration order — and
    // everything derived from it — is unchanged.
    const bool crowded = (used_slots_ + 1) * 10 > slots_.size() * 7;
    const bool bloated =
        entries_.size() > 64 && live_ * 2 < entries_.size();
    if (!crowded && !bloated) return;

    std::vector<Entry> live_entries;
    live_entries.reserve(live_);
    for (Entry& entry : entries_) {
      if (entry.live) live_entries.push_back(std::move(entry));
    }
    entries_ = std::move(live_entries);
    evict_cursor_ = 0;  // the compacted log is all-live from the front

    std::size_t new_size = slots_.size();
    while (live_ * 10 >= new_size * 5) new_size *= 2;  // target <= 50% load
    slots_.assign(new_size, Slot{});
    ++generation_;  // old slot contents are void regardless of size
    used_slots_ = 0;
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      place(entries_[i].key, i);
    }
  }

  /// Default flow budget: far above any legitimate workload (a full
  /// evaluation campaign touches a few thousand flows), small enough that a
  /// flood cannot grow censor state without bound.
  static constexpr std::size_t kDefaultFlowBudget = 65536;

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;  // insertion-order log, erased entries marked
  std::uint64_t generation_ = 1;
  std::size_t live_ = 0;
  std::size_t used_slots_ = 0;  // current-generation full + tombstone slots
  std::size_t budget_ = kDefaultFlowBudget;
  std::size_t evict_cursor_ = 0;  // next entry considered for eviction
  std::uint64_t evicted_ = 0;
};

}  // namespace caya
