// Trigger matching for censor models — stage 3 of the censor pipeline.
//
// A TriggerStage is the censor's answer to "is this byte stream forbidden?":
// a set of port-scoped rules over the dpi.h matchers (protocol-calibrated
// GFW matching, HTTP Host headers, TLS SNI, ...). The same stage serves
// both ways a censor inspects: the caller feeds it reassembled prefixes
// (reassembling boxes) or single-packet payloads in isolation (boxes
// without reassembly, which therefore fail open on any segmentation). That
// choice is per *flow*, not per box, because reassembly capability is a
// per-flow draw (GfwBoxParams::p_reassembly).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "censor/dpi.h"

namespace caya {

class TriggerStage {
 public:
  /// One port-scoped rule. Exactly one of `protocol` (dpi.h's calibrated
  /// protocol_match) or `matcher` (a single dpi.h matcher) is set.
  struct Rule {
    std::uint16_t server_port = 0;  // 0 = any port
    std::optional<AppProtocol> protocol;
    bool (*matcher)(std::span<const std::uint8_t> data,
                    const ForbiddenContent& content) = nullptr;
  };

  TriggerStage(ForbiddenContent content, std::vector<Rule> rules)
      : content_(std::move(content)), rules_(std::move(rules)) {}

  /// True when any rule scoped to `server_port` matches `data`.
  [[nodiscard]] bool match(std::uint16_t server_port,
                           std::span<const std::uint8_t> data) const {
    for (const Rule& rule : rules_) {
      if (rule.server_port != 0 && rule.server_port != server_port) continue;
      if (rule.protocol) {
        if (protocol_match(*rule.protocol, data, content_)) return true;
      } else if (rule.matcher != nullptr && rule.matcher(data, content_)) {
        return true;
      }
    }
    return false;
  }

  /// True when some rule could ever fire for this port — the cheap gate
  /// port-scoped censors apply before creating flow state.
  [[nodiscard]] bool applies_to_port(std::uint16_t server_port) const {
    for (const Rule& rule : rules_) {
      if (rule.server_port == 0 || rule.server_port == server_port) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] const ForbiddenContent& content() const noexcept {
    return content_;
  }

 private:
  ForbiddenContent content_;
  std::vector<Rule> rules_;
};

}  // namespace caya
