// The strategy engine: Geneva's packet-interception shim.
//
// On a real deployment this sits in libnetfilter_queue between the host's
// TCP stack and the NIC; here it implements PacketProcessor so the simulated
// Network applies it at a host's edge. The same engine runs server-side
// (this paper) or client-side (prior work) — only its attachment point
// differs.
#pragma once

#include <cstddef>

#include "geneva/strategy.h"
#include "netsim/endpoint.h"
#include "util/rng.h"

namespace caya {

class Engine : public PacketProcessor {
 public:
  /// Owning form: the engine keeps its own copy of the strategy.
  Engine(Strategy strategy, Rng rng)
      : owned_(std::move(strategy)), strategy_(&owned_), rng_(rng) {}

  /// Borrowing form for the trial hot path: avoids copying the strategy per
  /// connection. `strategy` must outlive the engine.
  Engine(const Strategy* strategy, Rng rng) : strategy_(strategy), rng_(rng) {}

  // strategy_ may point into owned_, so default copy/move would dangle.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  void process_outbound_into(Packet pkt, std::vector<Packet>& out) override {
    const std::size_t before = out.size();
    strategy_->apply_outbound_into(std::move(pkt), rng_, out);
    packets_out_ += out.size() - before;
    ++packets_in_;
  }

  void process_inbound_into(Packet pkt, std::vector<Packet>& out) override {
    strategy_->apply_inbound_into(std::move(pkt), rng_, out);
  }

  [[nodiscard]] const Strategy& strategy() const noexcept {
    return *strategy_;
  }

  /// Overhead accounting for §8: how many packets left the engine per packet
  /// that entered it (1.0 = no overhead).
  [[nodiscard]] double amplification() const noexcept {
    return packets_in_ == 0 ? 1.0
                            : static_cast<double>(packets_out_) /
                                  static_cast<double>(packets_in_);
  }

 private:
  Strategy owned_;  // empty in the borrowing case
  const Strategy* strategy_;
  Rng rng_;
  std::size_t packets_in_ = 0;
  std::size_t packets_out_ = 0;
};

}  // namespace caya
