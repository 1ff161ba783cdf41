// The simulated client <-> censor <-> server path.
//
// Topology matches the paper's experiments: a client inside the censoring
// regime, a server outside it, and one or more (colocated) censor middleboxes
// `kClientToCensorHops` into the path. Packets decrement TTL per hop, so
// TTL-limited probes (§3's insertion packets, §6's censor-location probes)
// behave as they do on the real Internet.
#pragma once

#include <memory>
#include <vector>

#include "netsim/endpoint.h"
#include "netsim/event_loop.h"
#include "netsim/link_model.h"
#include "netsim/middlebox.h"
#include "netsim/trace.h"
#include "util/rng.h"

namespace caya {

class Network : public Injector, public PacketEventSink {
 public:
  /// Path geometry: hops before the censor sees a packet, hops from the
  /// censor to the server, and the one-way delay each hop adds.
  static constexpr int kClientToCensorHops = 3;
  static constexpr int kCensorToServerHops = 7;
  static constexpr Time kPerHopDelay = duration::ms(2);

  struct Config {
    /// Per-segment, per-direction impairments (see link_model.h).
    LinkModel::Config link;
    /// Record censor-pipeline stage attributions (Injector::trace_stage) as
    /// kCensorStage trace events. Off by default: stage events change trace
    /// and waterfall output, which golden/equivalence tooling pins.
    bool trace_stages = false;
  };

  Network(EventLoop& loop, Config config, Rng rng);

  /// Trial-substrate reset: replays construction against the existing
  /// storage. `rng` must come from the same stream position construction
  /// took it from (Environment::reset replays its fork order), so the link
  /// model's impairment draws — and everything downstream — are
  /// byte-identical to a freshly built Network. Endpoints, processors, and
  /// the conservation ledger are cleared; attached middleboxes and the
  /// packet-sink registration survive.
  void reset(Rng rng);

  void set_client(Endpoint* client) noexcept { client_ = client; }
  void set_server(Endpoint* server) noexcept { server_ = server; }

  /// Optional Geneva engines at each end (nullptr = no manipulation).
  void set_client_processor(PacketProcessor* proc) noexcept {
    client_proc_ = proc;
  }
  void set_server_processor(PacketProcessor* proc) noexcept {
    server_proc_ = proc;
  }

  /// Attaches a middlebox at the censor hop. Multiple boxes are colocated;
  /// their add order is their spatial order (first added = closest to the
  /// client), which matters for rewriting boxes: a box added later sits
  /// nearer the server and therefore processes server->client packets
  /// *before* earlier boxes see them.
  void add_middlebox(Middlebox* box) { middleboxes_.push_back(box); }

  /// Entry points for the endpoints' TCP stacks.
  void send_from_client(Packet pkt);
  void send_from_server(Packet pkt);

  // Injector interface (used by censors).
  void inject(Packet pkt, Direction toward) override;
  [[nodiscard]] Time now() const override { return loop_.now(); }
  void trace_stage(const Packet& pkt, Direction dir, std::string_view box,
                   std::string_view stage, std::string_view detail) override;

  /// PacketEventSink: the EventLoop's typed lane hands scheduled packets
  /// back here. `tag` is one of the kTag* constants below ORed with the
  /// direction bit.
  void on_packet_event(Packet&& pkt, std::uint32_t tag) override;

  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }

  /// Conservation ledger for the CAYA_SELFCHECK harness: every packet that
  /// enters the path (endpoint send, censor injection, link duplication,
  /// middlebox rewrite output) is `created`; every packet leaves it either
  /// `delivered` (reached an endpoint's hop) or `dropped` (loss, corruption
  /// pinning, TTL expiry, censor drop, rewrite absorption). At quiescence
  /// created == delivered + dropped, or a packet leaked.
  struct PacketAccounting {
    std::size_t created = 0;
    std::size_t delivered = 0;
    std::size_t dropped = 0;
  };
  [[nodiscard]] const PacketAccounting& packet_accounting() const noexcept {
    return accounting_;
  }

  /// Marks a connection boundary for self-checks: zeroes the conservation
  /// ledger and records each middlebox's current TCB count as the growth
  /// baseline.
  void selfcheck_begin_connection();
  /// Verifies the invariants at end of connection (skipping packet
  /// conservation when the trial was cut off with packets still in flight).
  /// Throws SelfCheckError on violation.
  void selfcheck_end_connection(bool timed_out) const;

 private:
  // Packet-lane tags: event kind in the high bits, direction in bit 0.
  static constexpr std::uint32_t kTagDirServerToClient = 0x1;
  static constexpr std::uint32_t kTagDeliver = 0x0;     // at receiving host
  static constexpr std::uint32_t kTagCensorLeg = 0x2;   // at the censor hop
  [[nodiscard]] static std::uint32_t make_tag(std::uint32_t kind,
                                              Direction dir) noexcept {
    return kind |
           (dir == Direction::kServerToClient ? kTagDirServerToClient : 0);
  }

  void transmit(Packet pkt, Direction dir, bool from_censor);
  void deliver_to_endpoint(Packet pkt, Direction dir);
  /// The censor-hop arrival: runs the middleboxes and forwards survivors
  /// down the second link segment.
  void censor_leg(Packet arriving, Direction dir);
  /// Runs the packet through the colocated boxes in spatial order,
  /// appending the surviving (possibly rewritten) packets to `out` (cleared
  /// first; a recycled scratch).
  void run_middleboxes(Packet pkt, Direction dir, std::vector<Packet>& out);
  /// Applies due fault-schedule events for `box` and reports whether the box
  /// is currently stalled (fail-open: the packet passes uninspected).
  [[nodiscard]] bool apply_faults(Middlebox* box, const Packet& pkt,
                                  Direction dir);
  /// Consults the link model for one traversal of `segment`; returns false
  /// when the packet was dropped (already traced). On true, `pkt` may have
  /// been corrupted and `extra_delay`/`duplicate` reflect the decision.
  [[nodiscard]] bool impair(Packet& pkt, LinkSegment segment, Direction dir,
                            Time& extra_delay, bool& duplicate);

  EventLoop& loop_;
  Config config_;
  Rng rng_;
  LinkModel link_;
  Trace trace_;
  Endpoint* client_ = nullptr;
  Endpoint* server_ = nullptr;
  PacketProcessor* client_proc_ = nullptr;
  PacketProcessor* server_proc_ = nullptr;
  std::vector<Middlebox*> middleboxes_;
  PacketAccounting accounting_;
  std::vector<std::size_t> tcb_baseline_;
  // Recycled scratch vectors for the per-packet paths (moved out while in
  // use, moved back cleared — a reentrant call just sees an empty member
  // and falls back to a fresh vector).
  std::vector<Packet> send_scratch_;
  std::vector<Packet> deliver_scratch_;
  std::vector<Packet> survivors_scratch_;
  std::vector<Packet> mb_next_scratch_;
};

}  // namespace caya
