// Iran's in-path censor (§5.2):
//   * HTTP (port 80, Host header) and HTTPS (port 443, TLS SNI); Iran no
//     longer censors DNS-over-TCP (§4.2 footnote).
//   * Stateless detection — no TCB, no reassembly (a packet-mode trigger).
//   * On a match it "blackholes" the flow: the offending packet and every
//     subsequent client packet in that flow are dropped for ~60 s. Nothing
//     is injected; the client just starves and times out.
//
// Pipeline composition: TimedFlowSet (verdict stage's in-path blackhole) +
// a port-scoped packet-mode TriggerStage. No reassembler, no TCB state.
#pragma once

#include "censor/core/trigger.h"
#include "censor/core/verdict.h"
#include "censor/dpi.h"
#include "censor/flow.h"
#include "netsim/middlebox.h"
#include "netsim/time.h"

namespace caya {

class IranCensor : public Middlebox {
 public:
  explicit IranCensor(ForbiddenContent content,
                      Time blackhole_duration = duration::sec(60))
      : trigger_(std::move(content),
                 {{.server_port = 80, .matcher = &http_host_match},
                  {.server_port = 443, .matcher = &sni_match}}),
        blackhole_duration_(blackhole_duration) {}

  Verdict on_packet(const Packet& pkt, Direction dir,
                    Injector& inject) override;
  [[nodiscard]] bool in_path() const noexcept override { return true; }
  void flush() override { blackholed_.reset(); }

  /// Full trial-substrate reinitialization: state wipe plus the cumulative
  /// counters and ledgers a fresh construction would start at zero.
  void reinit() noexcept {
    blackholed_.reset();
    blackholed_.clear_eviction_ledger();
    censored_count_ = 0;
    rewind_fault_schedule();
  }
  [[nodiscard]] std::size_t tcb_count() const noexcept override {
    return blackholed_.size();
  }
  [[nodiscard]] StateStats state_stats() const noexcept override {
    return {blackholed_.evicted(), 0};
  }

  [[nodiscard]] std::size_t censored_count() const noexcept {
    return censored_count_;
  }

 private:
  TriggerStage trigger_;
  Time blackhole_duration_;
  TimedFlowSet blackholed_;
  std::size_t censored_count_ = 0;
};

}  // namespace caya
