#include "geneva/strategy.h"

namespace caya {

namespace {
void apply_rules_into(const std::vector<TriggeredAction>& rules, Packet pkt,
                      Rng& rng, std::vector<Packet>& out) {
  for (const auto& rule : rules) {
    if (rule.trigger.matches(pkt)) {
      run_action(rule.tree, std::move(pkt), rng, out);
      return;
    }
  }
  out.push_back(std::move(pkt));
}
}  // namespace

std::string TriggeredAction::to_string() const {
  return trigger.to_string() + "-" + action_to_string(tree) + "-|";
}

std::string Strategy::to_string() const {
  std::string out;
  for (const auto& rule : outbound) {
    if (!out.empty()) out += " ";
    out += rule.to_string();
  }
  out += " \\/ ";
  bool first = true;
  for (const auto& rule : inbound) {
    if (!first) out += " ";
    out += rule.to_string();
    first = false;
  }
  return out;
}

std::size_t Strategy::size() const {
  std::size_t n = 0;
  for (const auto& rule : outbound) n += rule.size();
  for (const auto& rule : inbound) n += rule.size();
  return n;
}

void Strategy::apply_outbound_into(Packet pkt, Rng& rng,
                                   std::vector<Packet>& out) const {
  apply_rules_into(outbound, std::move(pkt), rng, out);
}

void Strategy::apply_inbound_into(Packet pkt, Rng& rng,
                                  std::vector<Packet>& out) const {
  apply_rules_into(inbound, std::move(pkt), rng, out);
}

}  // namespace caya
