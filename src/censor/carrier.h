// Non-censoring carrier middleboxes (§7, "Results Can Vary by Network").
//
// The paper's anecdote: from a Pixel 3, every strategy worked over WiFi, but
// the simultaneous-open strategies failed on cellular networks — 1 and 3 on
// T-Mobile, and 1, 2, and 3 on AT&T — presumably because in-network
// middleboxes drop the server's out-of-place SYN packets. These models
// reproduce those failure sets:
//   * AT&T: drops every bare SYN traveling server -> client (no server ever
//     legitimately sends one), killing all three simultaneous-open
//     strategies.
//   * T-Mobile: tolerates a bare SYN only as the server's *first* packet of
//     the flow (an apparent simultaneous-open race), so Strategy 2 — whose
//     first packet is the SYN itself — survives while 1 and 3, where the
//     SYN follows a RST or a corrupt SYN+ACK, die.
//
// Per-flow "has the server spoken yet" state rides the shared FlowTable, so
// the CAYA_SELFCHECK TCB-growth bound covers this box like any censor.
#pragma once

#include "censor/core/flow_table.h"
#include "censor/flow.h"
#include "netsim/middlebox.h"

namespace caya {

enum class CarrierNetwork { kWifi, kTMobile, kAtt };

[[nodiscard]] std::string_view to_string(CarrierNetwork network) noexcept;

class CarrierMiddlebox : public Middlebox {
 public:
  explicit CarrierMiddlebox(CarrierNetwork network) : network_(network) {}

  Verdict on_packet(const Packet& pkt, Direction dir,
                    Injector& inject) override;
  [[nodiscard]] bool in_path() const noexcept override { return true; }
  void flush() override { server_spoke_.reset(); }

  /// Full trial-substrate reinitialization: state wipe plus the cumulative
  /// drop counter and eviction ledger a fresh construction would zero.
  void reinit() noexcept {
    server_spoke_.reset();
    server_spoke_.clear_eviction_ledger();
    dropped_ = 0;
  }
  [[nodiscard]] std::size_t tcb_count() const noexcept override {
    return server_spoke_.size();
  }

  [[nodiscard]] CarrierNetwork network() const noexcept { return network_; }
  [[nodiscard]] std::size_t dropped_count() const noexcept {
    return dropped_;
  }

 private:
  CarrierNetwork network_;
  FlowTable<bool> server_spoke_;  // flow -> server sent something
  std::size_t dropped_ = 0;
};

}  // namespace caya
