// Censor actions — stage 4 of the censor pipeline.
//
// The action vocabulary the measured censors compose their responses from:
//
//   on-path  (man-on-the-side; cannot drop):
//     * rst_teardown            — China's staggered RST volley
//     * bidirectional_rst_ack   — Turkmenistan's both-ends RST+ACK storm
//     * block_page / follow_up_rst — India's injected HTTP 200 + RST
//   in-path  (man-in-the-middle; kDrop verdicts honored):
//     * TimedFlowSet            — Iran's flow blackholing with expiry
//     * block_page + kDrop      — Kazakhstan's interception (the MITM
//                                 rewrite: the real stream is swallowed and
//                                 a spoofed page takes its place)
//   residual:
//     * ResidualTimers          — China's ~90 s per-(server, port) follow-up
//                                 censorship window
//
// Every helper pins the exact packet construction (flags, seq/ack
// derivation, spoofed endpoints) of the censor it models; the golden
// wire-signature suite asserts them byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "censor/core/flow_table.h"
#include "censor/flow.h"
#include "netsim/middlebox.h"
#include "netsim/time.h"
#include "packet/packet.h"

namespace caya {
namespace verdict {

/// China-style on-path teardown: RSTs toward the server spoofed from the
/// client with staggered sequence numbers {client_start, client_next} (so
/// teardown succeeds whether the spoofed packet beats the offending one or
/// trails it), then one RST+ACK toward the client spoofed from the server.
void rst_teardown(Injector& inject, const FlowKey& flow,
                  std::uint32_t client_start, std::uint32_t client_next,
                  std::uint32_t server_next);

/// Turkmenistan-style bidirectional teardown: `copies_to_client` RST+ACKs
/// toward the client spoofed from the server (staggered ack-derived seqs)
/// and one RST+ACK toward the server spoofed from the client.
void bidirectional_rst_ack(Injector& inject, const FlowKey& flow,
                           std::uint32_t client_seq, std::uint32_t client_ack,
                           std::uint32_t payload_len, int copies_to_client);

/// Spoofed block page: a FIN+PSH+ACK from the far end of `trigger` carrying
/// `page`, injected toward `toward`. seq/ack are the censor's own
/// derivation (ack-sequenced for the stateless boxes), so they are passed
/// through verbatim.
void block_page(Injector& inject, const Packet& trigger, Direction toward,
                std::uint32_t seq, std::uint32_t ack, std::string_view page);

/// The follow-up RST+ACK some injectors send after a block page.
void follow_up_rst(Injector& inject, const Packet& trigger, Direction toward,
                   std::uint32_t seq, std::uint32_t ack);

}  // namespace verdict

/// In-path blackholing with expiry (Iran): a held flow's packets are
/// swallowed until the hold lapses; the first lookup past the deadline
/// reclaims the entry.
class TimedFlowSet {
 public:
  void hold(const FlowKey& flow, Time until) { table_[flow] = until; }

  /// True while the flow is held at `now`; erases a lapsed entry.
  [[nodiscard]] bool held(const FlowKey& flow, Time now) {
    Time* until = table_.find(flow);
    if (until == nullptr) return false;
    if (now < *until) return true;
    table_.erase(flow);
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }
  void reset() { table_.reset(); }

  /// Budget passthroughs (see FlowTable): a blackhole set is censor state
  /// like any other and must not grow without bound under a trigger flood.
  void set_flow_budget(std::size_t max_flows) noexcept {
    table_.set_flow_budget(max_flows);
  }
  [[nodiscard]] std::uint64_t evicted() const noexcept {
    return table_.evicted();
  }
  /// Full-reinit ledger clear (see FlowTable::clear_eviction_ledger).
  void clear_eviction_ledger() noexcept { table_.clear_eviction_ledger(); }

 private:
  FlowTable<Time> table_;
};

/// Residual censorship timers (China's HTTP box): after a censorship event,
/// new connections to the same (server address, port) are torn down for the
/// configured window. Keyed through the shared FlowTable with a synthetic
/// flow key (the server endpoint alone).
class ResidualTimers {
 public:
  void arm(std::uint32_t server_addr, std::uint16_t server_port, Time until) {
    table_[key(server_addr, server_port)] = until;
  }

  [[nodiscard]] bool active(std::uint32_t server_addr,
                            std::uint16_t server_port, Time now) const {
    const Time* until = table_.find(key(server_addr, server_port));
    return until != nullptr && now < *until;
  }

  void reset() { table_.reset(); }

  [[nodiscard]] std::uint64_t evicted() const noexcept {
    return table_.evicted();
  }
  /// Full-reinit ledger clear (see FlowTable::clear_eviction_ledger).
  void clear_eviction_ledger() noexcept { table_.clear_eviction_ledger(); }

 private:
  [[nodiscard]] static FlowKey key(std::uint32_t addr,
                                   std::uint16_t port) noexcept {
    return {addr, port, 0, 0};
  }

  FlowTable<Time> table_;
};

}  // namespace caya
