// Turkmenistan's bidirectional RST+ACK injector, per Nourin et al.
// ("Measuring and Evading Turkmenistan's Internet Censorship"):
//   * On-path (man-on-the-side): it cannot drop, it only injects.
//   * Triggers on HTTP Host headers (port 80) and TLS SNI (port 443), and
//     matches payloads in *both* directions — which is how the original
//     measurements could elicit injections from outside the country.
//   * On a match it fires RST+ACKs at both ends: a staggered volley toward
//     the client and one toward the server.
//   * No reassembly at all: any segmentation or sequence gap fails open
//     (packet-mode trigger, like Kazakhstan's).
//   * Tracks TCBs naively: a client RST or FIN with the expected sequence
//     number tears the TCB down and the flow is ignored afterwards — the
//     client-side teardown analogue of the paper's §2.1 shortcut, and the
//     evasion class Nourin et al. found most effective.
//
// This censor is composed entirely from the shared pipeline stages —
// FlowTable for TCBs, a port-scoped packet-mode TriggerStage, and the
// verdict stage's bidirectional_rst_ack action. It holds no bespoke flow
// table or reassembly code; see docs/CENSORS.md for the walkthrough.
#pragma once

#include "censor/core/flow_table.h"
#include "censor/core/trigger.h"
#include "censor/dpi.h"
#include "censor/flow.h"
#include "netsim/middlebox.h"
#include "util/rng.h"

namespace caya {

struct TurkmenistanParams {
  /// Baseline per-flow miss rate (the DPI farm is overloaded; Nourin et
  /// al. report intermittent non-enforcement).
  double p_miss = 0.02;
  /// RST+ACK copies fired toward the client per censorship event.
  int rst_acks_to_client = 3;
};

class TurkmenistanCensor : public Middlebox {
 public:
  TurkmenistanCensor(ForbiddenContent content, Rng rng,
                     TurkmenistanParams params = {});

  Verdict on_packet(const Packet& pkt, Direction dir,
                    Injector& inject) override;
  [[nodiscard]] bool in_path() const noexcept override { return false; }
  void flush() override { flows_.reset(); }

  /// Full trial-substrate reinitialization: re-seeds the miss-draw stream
  /// and zeroes the cumulative counters/ledgers, leaving the box
  /// byte-identical to TurkmenistanCensor(content, rng).
  void reinit(Rng rng) noexcept {
    rng_ = rng;
    flows_.reset();
    flows_.clear_eviction_ledger();
    censored_count_ = 0;
    rewind_fault_schedule();
  }
  [[nodiscard]] std::size_t tcb_count() const noexcept override {
    return flows_.size();
  }
  [[nodiscard]] StateStats state_stats() const noexcept override {
    return {flows_.evicted(), 0};
  }

  [[nodiscard]] std::size_t censored_count() const noexcept {
    return censored_count_;
  }

 private:
  struct FlowState {
    std::uint32_t expected_client_seq = 0;
    bool torn_down = false;  // believed client teardown: flow ignored
    bool dead = false;       // already censored
    bool missed = false;     // baseline fail-open draw
  };

  void censor_flow(FlowState& flow, const FlowKey& key, const Packet& pkt,
                   Direction dir, Injector& inject);

  TurkmenistanParams params_;
  Rng rng_;
  TriggerStage trigger_;
  FlowTable<FlowState> flows_;
  std::size_t censored_count_ = 0;
};

}  // namespace caya
