// Kazakhstan's in-path HTTP censor (§5.3):
//   * Tracks flows and models what a "normal" HTTP connection looks like;
//     connections that violate the model are ignored entirely. The paper's
//     three violations, reproduced here:
//       - three (or more) consecutive payload-bearing server packets during
//         the handshake (Strategy 9 — exactly why three is unknown; the
//         paper's ablations show 2 payloads or an empty packet in between
//         defeat the strategy, so the box counts *consecutive* payloads);
//       - a well-formed benign "GET / HTTP1." prefix from the server seen
//         twice during the handshake makes the box believe the *server* is
//         the client (Strategy 10);
//       - a handshake packet carrying none of SYN/ACK/FIN/RST (Strategy 11).
//   * No reassembly: a segmented request is uncensored (Strategy 8) — a
//     packet-mode trigger.
//   * On a match it turns man-in-the-middle: every packet of the stream is
//     intercepted for ~15 s and a FIN+PSH+ACK block page is injected at the
//     client.
//   * Injected-probe behaviour (§5.3 follow-ups): forbidden GETs from the
//     server during the handshake elicit the block page only on the second
//     such request.
//
// Pipeline composition: shared FlowTable for the per-flow model state, a
// port-scoped packet-mode TriggerStage, and the verdict stage's block-page
// injection + in-path interception (the MITM rewrite: the real stream is
// swallowed while the spoofed page stands in for it).
#pragma once

#include <string>

#include "censor/core/flow_table.h"
#include "censor/core/trigger.h"
#include "censor/dpi.h"
#include "censor/flow.h"
#include "netsim/middlebox.h"
#include "netsim/time.h"

namespace caya {

class KazakhstanCensor : public Middlebox {
 public:
  explicit KazakhstanCensor(ForbiddenContent content,
                            Time intercept_duration = duration::sec(15))
      : trigger_(std::move(content),
                 {{.server_port = 80, .matcher = &http_host_match}}),
        intercept_duration_(intercept_duration) {}

  Verdict on_packet(const Packet& pkt, Direction dir,
                    Injector& inject) override;
  [[nodiscard]] bool in_path() const noexcept override { return true; }
  void flush() override { flows_.reset(); }

  /// Full trial-substrate reinitialization: state wipe plus the cumulative
  /// counters and ledgers a fresh construction would start at zero.
  void reinit() noexcept {
    flows_.reset();
    flows_.clear_eviction_ledger();
    censored_count_ = 0;
    probe_responses_ = 0;
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
  [[nodiscard]] std::size_t probe_responses() const noexcept {
    return probe_responses_;
  }
  [[nodiscard]] static std::string block_page();

 private:
  struct FlowState {
    bool handshake_done = false;   // saw client data or client ACK after SA
    bool ignored = false;          // violated the "normal connection" model
    int consecutive_server_payloads = 0;
    int benign_server_gets = 0;
    int forbidden_server_gets = 0;
    bool saw_server_synack = false;
    Time intercept_until = 0;      // MITM active while now < this
  };

  void inspect_server_handshake(FlowState& flow, const Packet& pkt,
                                Injector& inject);

  TriggerStage trigger_;
  Time intercept_duration_;
  FlowTable<FlowState> flows_;
  std::size_t censored_count_ = 0;
  std::size_t probe_responses_ = 0;
};

}  // namespace caya
