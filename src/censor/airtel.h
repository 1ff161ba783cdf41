// India's Airtel middlebox (§5.2), per the paper and Yadav et al.:
//   * HTTP only, port 80 only — any other port is uncensored.
//   * Completely stateless: no TCB, no reassembly; every client packet is
//     inspected in isolation (a forbidden request without any handshake
//     still triggers it).
//   * On a match it injects an HTTP 200 block page on a FIN+PSH+ACK packet
//     (spoofed from the server, sequenced off the offending packet's ack
//     number) plus a follow-up RST "for good measure".
//
// Pipeline composition: a port-scoped packet-mode TriggerStage + the
// verdict stage's block-page / follow-up-RST injections. No flow table, no
// reassembler — statelessness is what makes this box trivially evadable by
// segmentation.
#pragma once

#include <string>

#include "censor/core/trigger.h"
#include "censor/dpi.h"
#include "netsim/middlebox.h"

namespace caya {

class AirtelCensor : public Middlebox {
 public:
  explicit AirtelCensor(ForbiddenContent content,
                        std::uint16_t http_port = 80)
      : trigger_(std::move(content),
                 {{.server_port = http_port, .matcher = &http_host_match}}) {}

  Verdict on_packet(const Packet& pkt, Direction dir,
                    Injector& inject) override;
  [[nodiscard]] bool in_path() const noexcept override { return false; }
  void flush() override {}

  /// Full trial-substrate reinitialization: the box is stateless, so this
  /// only zeroes the cumulative counter and rewinds the fault schedule.
  void reinit() noexcept {
    censored_count_ = 0;
    rewind_fault_schedule();
  }

  [[nodiscard]] std::size_t censored_count() const noexcept {
    return censored_count_;
  }
  [[nodiscard]] static std::string block_page();

 private:
  TriggerStage trigger_;
  std::size_t censored_count_ = 0;
};

}  // namespace caya
