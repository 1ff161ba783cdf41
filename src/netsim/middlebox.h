// Middlebox interface: the attachment point for censors.
//
// On-path (man-on-the-side) censors observe copies and inject; they cannot
// drop, so they must always return kPass. In-path (man-in-the-middle)
// censors may additionally drop or swallow packets (Iran's blackholing,
// Kazakhstan's interception).
#pragma once

#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "netsim/endpoint.h"
#include "netsim/fault.h"
#include "netsim/time.h"
#include "packet/packet.h"

namespace caya {

enum class Verdict { kPass, kDrop };

/// Handed to middleboxes so they can inject packets toward either end.
class Injector {
 public:
  virtual ~Injector() = default;
  virtual void inject(Packet pkt, Direction toward) = 0;
  [[nodiscard]] virtual Time now() const = 0;

  /// Stage-attribution hook for the censor pipeline: a box reports which
  /// stage (flow-table / reassembly / trigger / verdict) decided something
  /// notable about `pkt`. Default no-op; the Network records a trace event
  /// when stage tracing is enabled, so waterfalls can attribute verdicts to
  /// the stage that fired.
  virtual void trace_stage(const Packet& pkt, Direction dir,
                           std::string_view box, std::string_view stage,
                           std::string_view detail) {
    (void)pkt;
    (void)dir;
    (void)box;
    (void)stage;
    (void)detail;
  }
};

class Middlebox {
 public:
  virtual ~Middlebox() = default;

  /// Called for every packet crossing the middlebox's hop (in either
  /// direction) whose TTL was large enough to reach it.
  [[nodiscard]] virtual Verdict on_packet(const Packet& pkt, Direction dir,
                                          Injector& inject) = 0;

  /// True for man-in-the-middle boxes, whose kDrop verdicts are honored.
  [[nodiscard]] virtual bool in_path() const noexcept { return false; }

  /// In-path boxes may additionally *rewrite* traffic: returning a packet
  /// list replaces the packet in flight (empty list = swallow it);
  /// returning nullopt leaves it untouched and on_packet() is consulted as
  /// usual. This is how a friendly mid-path deployment (a CDN or
  /// TapDance-style element, §8) runs a Geneva strategy without touching
  /// the server. Rewrites happen before downstream boxes see the packet.
  [[nodiscard]] virtual std::optional<std::vector<Packet>> rewrite(
      const Packet& pkt, Direction dir) {
    (void)pkt;
    (void)dir;
    return std::nullopt;
  }

  /// Wipes all per-flow state: the mid-trial censor fault (kFlush and
  /// kRestart, see fault.h). RNG position, cumulative counters and ledgers
  /// survive; a full substrate reset is each censor's reinit().
  virtual void flush() {}

  /// Number of per-flow state entries (TCBs and equivalents) the box holds.
  /// The CAYA_SELFCHECK harness bounds this per connection: a table that
  /// grows per *packet* instead of per *flow* is a state leak that would
  /// OOM a multi-week campaign.
  [[nodiscard]] virtual std::size_t tcb_count() const noexcept { return 0; }

  /// Bounded-state ledger: what the box shed to stay within its hard
  /// budgets (FlowTable flow budget, Reassembler per-flow budgets). Every
  /// shed entry is a fail-open bias under flood — the hostile-ingress bench
  /// and the fuzz oracle report these. Cumulative across flush().
  struct StateStats {
    std::uint64_t evicted_flows = 0;     // flow-table budget evictions
    std::uint64_t dropped_segments = 0;  // reassembly budget drops
  };
  [[nodiscard]] virtual StateStats state_stats() const noexcept { return {}; }

  /// Attaches a schedule of faults (state flushes, stalls, restarts). The
  /// Network consults it before each packet crosses this box; see fault.h.
  void set_fault_schedule(FaultSchedule schedule) {
    faults_ = std::move(schedule);
  }
  [[nodiscard]] FaultSchedule* fault_schedule() noexcept {
    return faults_.empty() ? nullptr : &faults_;
  }

  /// Rewinds the attached fault schedule's cursor. Part of full
  /// trial-substrate reinitialization (a recycled trial restarts the
  /// simulated timeline at t = 0, so the schedule must fire again exactly
  /// as it did for a fresh box). Distinct from flush(), which is the
  /// *mid-trial* fault and must not touch the schedule driving it.
  void rewind_fault_schedule() noexcept { faults_.rewind(); }

 private:
  FaultSchedule faults_;
};

/// A friendly in-path element running a Geneva engine over one direction of
/// traffic — the paper's "reverse proxy / middlebox along the path"
/// deployment. Placed between the censor and the server, rewriting
/// server->client packets is equivalent to deploying server-side.
class EngineMiddlebox : public Middlebox {
 public:
  EngineMiddlebox(PacketProcessor& engine, Direction rewrites_direction)
      : engine_(engine), direction_(rewrites_direction) {}

  Verdict on_packet(const Packet&, Direction, Injector&) override {
    return Verdict::kPass;
  }
  [[nodiscard]] bool in_path() const noexcept override { return true; }
  [[nodiscard]] std::optional<std::vector<Packet>> rewrite(
      const Packet& pkt, Direction dir) override {
    if (dir != direction_) return std::nullopt;
    std::vector<Packet> out;
    engine_.process_outbound_into(pkt, out);
    return out;
  }

 private:
  PacketProcessor& engine_;
  Direction direction_;
};

}  // namespace caya
