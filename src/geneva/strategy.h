// A Geneva strategy: trigger -> action-tree pairs for the outbound and
// inbound directions, printable in (and parseable from) the paper's DSL:
//
//   [TCP:flags:SA]-duplicate(tamper{TCP:flags:replace:R},
//                            tamper{TCP:flags:replace:S})-| \/
#pragma once

#include <string>
#include <vector>

#include "geneva/action.h"
#include "geneva/trigger.h"

namespace caya {

struct TriggeredAction {
  Trigger trigger;
  ActionTree tree;  // preorder, never empty; a lone send is a plain send rule

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t size() const { return 1 + action_size(tree); }
};

struct Strategy {
  std::vector<TriggeredAction> outbound;
  std::vector<TriggeredAction> inbound;

  /// Full DSL form: "<outbound...> \/ <inbound...>".
  [[nodiscard]] std::string to_string() const;

  /// Total node count (Geneva's complexity measure).
  [[nodiscard]] std::size_t size() const;

  /// Applies the direction's rules to one packet, appending the results to
  /// `out` (which the caller may recycle across packets). The first
  /// matching rule runs; non-matching packets pass through unchanged.
  void apply_outbound_into(Packet pkt, Rng& rng,
                           std::vector<Packet>& out) const;
  void apply_inbound_into(Packet pkt, Rng& rng,
                          std::vector<Packet>& out) const;
};

}  // namespace caya
