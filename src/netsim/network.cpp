#include "netsim/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/selfcheck.h"

namespace caya {
namespace {

// Two independent loss processes survive or drop a traversal together.
double combine_loss(double a, double b) {
  return 1.0 - (1.0 - a) * (1.0 - b);
}

// Folds the legacy Config::loss knob into the link model: one draw per
// endpoint send, applied on the sender's own segment (the same distribution
// the old single-draw-per-transmit code produced), drawn from the dedicated
// loss stream so it never perturbs delivery ordering or other impairments.
LinkModel::Config effective_link(const Network::Config& config) {
  LinkModel::Config link = config.link;
  link.client_censor_up.loss =
      combine_loss(link.client_censor_up.loss, config.loss);
  link.censor_server_down.loss =
      combine_loss(link.censor_server_down.loss, config.loss);
  return link;
}

}  // namespace

Network::Network(EventLoop& loop, Config config, Rng rng, Logger logger)
    : loop_(loop),
      config_(config),
      rng_(rng),
      logger_(std::move(logger)),
      link_(effective_link(config), rng_.fork()) {
  loop_.set_packet_sink(this);
}

void Network::reset(Rng rng) {
  // Replays the constructor's stream handling exactly: store the rng, then
  // fork once for the link model.
  rng_ = rng;
  link_.reset(effective_link(config_), rng_.fork());
  trace_.clear();
  trace_.set_enabled(true);  // a fresh Trace records by default
  accounting_ = PacketAccounting{};
  tcb_baseline_.clear();
  client_ = nullptr;
  server_ = nullptr;
  client_proc_ = nullptr;
  server_proc_ = nullptr;
}

void Network::on_packet_event(Packet&& pkt, std::uint32_t tag) {
  const Direction dir = (tag & kTagDirServerToClient) != 0
                            ? Direction::kServerToClient
                            : Direction::kClientToServer;
  if ((tag & kTagCensorLeg) != 0) {
    censor_leg(std::move(pkt), dir);
  } else {
    deliver_to_endpoint(std::move(pkt), dir);
  }
}

void Network::send_from_client(Packet pkt) {
  std::vector<Packet> out = std::move(send_scratch_);
  out.clear();
  if (client_proc_ != nullptr) {
    client_proc_->process_outbound_into(std::move(pkt), out);
  } else {
    out.push_back(std::move(pkt));
  }
  for (auto& p : out) {
    trace_.record(loop_.now(), TracePoint::kClientSent,
                  Direction::kClientToServer, p, "");
    transmit(std::move(p), Direction::kClientToServer, /*from_censor=*/false);
  }
  out.clear();
  send_scratch_ = std::move(out);
}

void Network::send_from_server(Packet pkt) {
  std::vector<Packet> out = std::move(send_scratch_);
  out.clear();
  if (server_proc_ != nullptr) {
    server_proc_->process_outbound_into(std::move(pkt), out);
  } else {
    out.push_back(std::move(pkt));
  }
  for (auto& p : out) {
    trace_.record(loop_.now(), TracePoint::kServerSent,
                  Direction::kServerToClient, p, "");
    transmit(std::move(p), Direction::kServerToClient, /*from_censor=*/false);
  }
  out.clear();
  send_scratch_ = std::move(out);
}

void Network::selfcheck_begin_connection() {
  accounting_ = PacketAccounting{};
  tcb_baseline_.clear();
  for (const Middlebox* box : middleboxes_) {
    tcb_baseline_.push_back(box->tcb_count());
  }
}

void Network::selfcheck_end_connection(bool timed_out) const {
  // When the trial was cut off, packets are legitimately still in flight, so
  // only the TCB bound applies.
  if (!timed_out &&
      accounting_.created != accounting_.delivered + accounting_.dropped) {
    throw SelfCheckError(
        "packet-conservation",
        "created=" + std::to_string(accounting_.created) +
            " != delivered=" + std::to_string(accounting_.delivered) +
            " + dropped=" + std::to_string(accounting_.dropped));
  }
  // One connection touches one flow per box (plus injected reverse-keyed
  // residue); growth far beyond that means per-packet TCB creation.
  constexpr std::size_t kMaxTcbGrowthPerConnection = 8;
  for (std::size_t i = 0;
       i < middleboxes_.size() && i < tcb_baseline_.size(); ++i) {
    const std::size_t count = middleboxes_[i]->tcb_count();
    if (count > tcb_baseline_[i] + kMaxTcbGrowthPerConnection) {
      throw SelfCheckError(
          "tcb-leak", "middlebox " + std::to_string(i) + " grew from " +
                          std::to_string(tcb_baseline_[i]) + " to " +
                          std::to_string(count) +
                          " TCB entries over one connection");
    }
  }
}

void Network::inject(Packet pkt, Direction toward) {
  ++accounting_.created;
  trace_.record(loop_.now(), TracePoint::kCensorInjected, toward, pkt,
                "injected");
  // Injected packets ride the segment from the censor hop to their target
  // and face that lane's impairments like any other traffic.
  const LinkSegment segment = toward == Direction::kClientToServer
                                  ? LinkSegment::kCensorServer
                                  : LinkSegment::kClientCensor;
  Time extra_delay = 0;
  bool duplicate = false;
  if (!impair(pkt, segment, toward, extra_delay, duplicate)) return;
  if (duplicate) ++accounting_.created;
  const int hops = toward == Direction::kClientToServer
                       ? config_.censor_to_server_hops
                       : config_.client_to_censor_hops;
  const Time arrival = loop_.now() +
                       static_cast<Time>(hops) * config_.per_hop_delay +
                       extra_delay;
  if (duplicate) {
    loop_.schedule_packet_at(arrival, pkt, make_tag(kTagDeliver, toward));
    trace_.record(loop_.now(), TracePoint::kDuplicated, toward, pkt,
                  "link duplication");
    loop_.schedule_packet_at(arrival + duration::us(1), std::move(pkt),
                             make_tag(kTagDeliver, toward));
  } else {
    loop_.schedule_packet_at(arrival, std::move(pkt),
                             make_tag(kTagDeliver, toward));
  }
}

void Network::trace_stage(const Packet& pkt, Direction dir,
                          std::string_view box, std::string_view stage,
                          std::string_view detail) {
  // The note string below is real per-packet allocation work; skip it
  // whenever nothing would record it (stage tracing off OR the trial is not
  // recording its trace at all).
  if (!config_.trace_stages || !trace_.is_enabled()) return;
  std::string note = std::string(box) + "/" + std::string(stage);
  if (!detail.empty()) {
    note += ": ";
    note += detail;
  }
  trace_.record({loop_.now(), TracePoint::kCensorStage, dir, pkt, std::move(note)});
}

bool Network::apply_faults(Middlebox* box, const Packet& pkt,
                           Direction dir) {
  FaultSchedule* faults = box->fault_schedule();
  if (faults == nullptr) return false;
  for (const FaultEvent& ev : faults->take_due(loop_.now())) {
    const char* note = ev.kind == FaultKind::kFlush   ? "censor state flush"
                       : ev.kind == FaultKind::kStall ? "censor stall"
                                                      : "censor restart";
    if (ev.kind != FaultKind::kStall) box->flush();
    trace_.record(loop_.now(), TracePoint::kCensorFault, dir, pkt, note);
  }
  return faults->stalled_at(loop_.now());
}

void Network::run_middleboxes(Packet pkt, Direction dir,
                              std::vector<Packet>& out) {
  // `out` doubles as the in-flight set between boxes; `next` collects each
  // box's outputs, then the two swap. Both keep their capacity across
  // packets (out is the caller's recycled scratch, next is a member).
  out.clear();
  out.reserve(4);
  out.push_back(std::move(pkt));
  std::vector<Packet> next = std::move(mb_next_scratch_);
  const std::size_t box_count = middleboxes_.size();
  for (std::size_t i = 0; i < box_count && !out.empty(); ++i) {
    // Spatial order: add order when heading toward the server, reversed
    // when heading toward the client.
    Middlebox* box = middleboxes_[dir == Direction::kServerToClient
                                      ? box_count - 1 - i
                                      : i];
    if (apply_faults(box, out.front(), dir)) {
      // Stalled box: fail open — traffic passes uninspected.
      continue;
    }
    next.clear();
    for (auto& p : out) {
      if (box->in_path()) {
        if (auto rewritten = box->rewrite(p, dir)) {
          // Ledger: the original is consumed, each rewrite output is new.
          ++accounting_.dropped;
          accounting_.created += rewritten->size();
          for (auto& rp : *rewritten) next.push_back(std::move(rp));
          continue;
        }
      }
      const Verdict verdict = box->on_packet(p, dir, *this);
      if (verdict == Verdict::kDrop && box->in_path()) {
        ++accounting_.dropped;
        trace_.record(loop_.now(), TracePoint::kCensorDropped, dir, p, "");
        continue;
      }
      next.push_back(std::move(p));
    }
    out.swap(next);
  }
  next.clear();
  mb_next_scratch_ = std::move(next);
}

bool Network::impair(Packet& pkt, LinkSegment segment, Direction dir,
                     Time& extra_delay, bool& duplicate) {
  const LinkDecision decision = link_.traverse(segment, dir, loop_.now());
  if (decision.drop) {
    ++accounting_.dropped;
    trace_.record(loop_.now(), TracePoint::kLost, dir, pkt,
                  decision.drop_reason);
    return false;
  }
  if (decision.corrupt) {
    LinkModel::corrupt_packet(pkt);
    trace_.record(loop_.now(), TracePoint::kCorrupted, dir, pkt,
                  "bit corruption");
  }
  if (decision.extra_delay > 0) {
    trace_.record(loop_.now(), TracePoint::kReordered, dir, pkt,
                  "jitter delay");
  }
  extra_delay = decision.extra_delay;
  duplicate = decision.duplicate;
  return true;
}

void Network::transmit(Packet pkt, Direction dir, bool from_censor) {
  ++accounting_.created;
  // First segment: sender to the censor hop.
  const LinkSegment first_segment = dir == Direction::kClientToServer
                                        ? LinkSegment::kClientCensor
                                        : LinkSegment::kCensorServer;
  Time extra_delay = 0;
  bool duplicate = false;
  if (!impair(pkt, first_segment, dir, extra_delay, duplicate)) return;
  if (duplicate) ++accounting_.created;

  const int hops_to_censor = dir == Direction::kClientToServer
                                 ? config_.client_to_censor_hops
                                 : config_.censor_to_server_hops;

  if (!from_censor && pkt.ip.ttl < hops_to_censor) {
    // TTL expires before the censor's hop: nobody sees it.
    accounting_.dropped += duplicate ? 2 : 1;
    trace_.record(loop_.now(), TracePoint::kLost, dir, pkt, "ttl expired");
    return;
  }

  const Time censor_arrival =
      loop_.now() +
      static_cast<Time>(hops_to_censor) * config_.per_hop_delay + extra_delay;

  if (duplicate) {
    trace_.record(loop_.now(), TracePoint::kDuplicated, dir, pkt,
                  "link duplication");
    // The duplicate is scheduled first (lower event seq) at a later time —
    // preserved exactly from the closure-based implementation, since event
    // seq numbers feed the equal-time FIFO order.
    loop_.schedule_packet_at(censor_arrival + duration::us(1), pkt,
                             make_tag(kTagCensorLeg, dir));
  }
  loop_.schedule_packet_at(censor_arrival, std::move(pkt),
                           make_tag(kTagCensorLeg, dir));
}

void Network::censor_leg(Packet arriving, Direction dir) {
  const int hops_to_censor = dir == Direction::kClientToServer
                                 ? config_.client_to_censor_hops
                                 : config_.censor_to_server_hops;
  const int hops_total = total_hops();
  // Second segment: censor hop to the receiver (traversed by each survivor
  // of the middleboxes, with its own lane's impairments).
  const LinkSegment second_segment = dir == Direction::kClientToServer
                                         ? LinkSegment::kCensorServer
                                         : LinkSegment::kClientCensor;
  trace_.record(loop_.now(), TracePoint::kCensorSaw, dir, arriving, "");
  std::vector<Packet> survivors = std::move(survivors_scratch_);
  run_middleboxes(std::move(arriving), dir, survivors);
  const Time remaining =
      static_cast<Time>(hops_total - hops_to_censor) * config_.per_hop_delay;
  for (auto& p : survivors) {
    if (p.ip.ttl < hops_total) {
      ++accounting_.dropped;
      trace_.record(loop_.now(), TracePoint::kLost, dir, p, "ttl expired");
      continue;
    }
    p.ip.ttl = static_cast<std::uint8_t>(p.ip.ttl - hops_total);
    Time leg_delay = 0;
    bool leg_duplicate = false;
    if (!impair(p, second_segment, dir, leg_delay, leg_duplicate)) continue;
    if (leg_duplicate) {
      ++accounting_.created;
      loop_.schedule_packet_in(remaining + leg_delay, p,
                               make_tag(kTagDeliver, dir));
      trace_.record(loop_.now(), TracePoint::kDuplicated, dir, p,
                    "link duplication");
      loop_.schedule_packet_in(remaining + leg_delay + duration::us(1),
                               std::move(p), make_tag(kTagDeliver, dir));
    } else {
      loop_.schedule_packet_in(remaining + leg_delay, std::move(p),
                               make_tag(kTagDeliver, dir));
    }
  }
  survivors.clear();
  survivors_scratch_ = std::move(survivors);
}

void Network::deliver_to_endpoint(Packet pkt, Direction dir) {
  ++accounting_.delivered;
  Endpoint* target =
      dir == Direction::kClientToServer ? server_ : client_;
  PacketProcessor* proc =
      dir == Direction::kClientToServer ? server_proc_ : client_proc_;
  const TracePoint point = dir == Direction::kClientToServer
                               ? TracePoint::kServerReceived
                               : TracePoint::kClientReceived;
  if (target == nullptr) return;

  std::vector<Packet> in = std::move(deliver_scratch_);
  in.clear();
  if (proc != nullptr) {
    proc->process_inbound_into(std::move(pkt), in);
  } else {
    in.push_back(std::move(pkt));
  }
  for (auto& p : in) {
    trace_.record(loop_.now(), point, dir, p, "");
    target->deliver(p);
  }
  in.clear();
  deliver_scratch_ = std::move(in);
}

}  // namespace caya
