#include "geneva/mutation.h"

#include <array>

namespace caya {

namespace {

/// Collects every child slot in the tree (including empty ones) plus the
/// root slot, for uniform surgery.
void collect_slots(ActionPtr& slot, std::vector<ActionPtr*>& out) {
  out.push_back(&slot);
  if (slot) {
    for (ActionPtr* child : slot->children()) collect_slots(*child, out);
  }
}

std::vector<ActionPtr*> all_slots(TriggeredAction& rule) {
  std::vector<ActionPtr*> out;
  collect_slots(rule.root, out);
  return out;
}

void collect_tampers(const ActionPtr& node, std::vector<TamperAction*>& out) {
  if (!node) return;
  if (auto* tamper = dynamic_cast<TamperAction*>(node.get())) {
    out.push_back(tamper);
  }
  for (ActionPtr* child : const_cast<Action*>(node.get())->children()) {
    collect_tampers(*child, out);
  }
}

/// A uniformly drawn entry of kTamperFields.
const Field& random_tamper_field(Rng& rng) {
  const auto& [proto, name] = kTamperFields[rng.index(kTamperFields.size())];
  return lookup_field(proto, name);
}

}  // namespace

std::string random_field_value(const Field& field, Rng& rng) {
  const std::string_view name = field.name;
  if (name == "flags") {
    static const std::array<std::string, 10> kFlagSets = {
        "", "S", "A", "R", "F", "SA", "RA", "FA", "PA", "FPA"};
    return kFlagSets[rng.index(kFlagSets.size())];
  }
  if (name == "window") {
    static const std::array<std::string, 5> kWindows = {"0", "10", "64",
                                                        "1024", "65535"};
    return kWindows[rng.index(kWindows.size())];
  }
  if (name == "options-wscale") {
    static const std::array<std::string, 3> kScales = {"", "0", "14"};
    return kScales[rng.index(kScales.size())];
  }
  if (name == "load") {
    static const std::array<std::string, 4> kLoads = {
        "GET / HTTP1.", "GET / HTTP/1.1", "AAAA", "%"};
    return kLoads[rng.index(kLoads.size())];
  }
  if (name == "seq" || name == "ack") {
    return std::to_string(rng.uniform(0, 0xffffffff));
  }
  if (name == "ttl") {
    return std::to_string(rng.uniform(1, 64));
  }
  if (field.proto == Proto::kIp && (name == "src" || name == "dst")) {
    return Ipv4Address(static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff)))
        .to_string();
  }
  return std::to_string(rng.uniform(0, 0xffff));
}

ActionPtr random_action(const GeneConfig& config, Rng& rng,
                        std::size_t depth) {
  const bool must_leaf = depth >= kMaxDepth;
  const auto roll = rng.uniform(0, 99);

  if (!must_leaf && roll < 30) {
    // duplicate with random children (nulls = send are common).
    ActionPtr first =
        rng.chance(0.6) ? random_action(config, rng, depth + 1) : nullptr;
    ActionPtr second =
        rng.chance(0.6) ? random_action(config, rng, depth + 1) : nullptr;
    return std::make_unique<DuplicateAction>(std::move(first),
                                             std::move(second));
  }
  if (!must_leaf && roll < 70) {
    const Field& field = random_tamper_field(rng);
    const bool corrupt = rng.chance(0.4);
    std::string value = corrupt ? "" : random_field_value(field, rng);
    ActionPtr child =
        rng.chance(0.4) ? random_action(config, rng, depth + 1) : nullptr;
    return std::make_unique<TamperAction>(
        field, corrupt ? TamperMode::kCorrupt : TamperMode::kReplace,
        std::move(value), std::move(child));
  }
  if (!must_leaf && roll < 78) {
    ActionPtr first =
        rng.chance(0.4) ? random_action(config, rng, depth + 1) : nullptr;
    ActionPtr second =
        rng.chance(0.4) ? random_action(config, rng, depth + 1) : nullptr;
    return std::make_unique<FragmentAction>(
        Proto::kTcp, 1 + rng.index(16), rng.chance(0.7), std::move(first),
        std::move(second));
  }
  if (roll < 88) return std::make_unique<DropAction>();
  // Plain send is the null slot (there is no send node): one canonical
  // tree per DSL string keeps checkpointed strategies bit-identical through
  // a to_string()/parse round trip.
  return nullptr;
}

Strategy random_strategy(const GeneConfig& config, Rng& rng) {
  Strategy strategy;
  const Trigger trigger =
      config.allowed_triggers[rng.index(config.allowed_triggers.size())];
  strategy.outbound.emplace_back(trigger, random_action(config, rng));
  return strategy;
}

void mutate(Strategy& strategy, const GeneConfig& config, Rng& rng) {
  if (strategy.outbound.empty()) {
    strategy = random_strategy(config, rng);
    return;
  }
  TriggeredAction& rule = rng.pick(strategy.outbound);
  const auto roll = rng.uniform(0, 99);

  if (roll < 15) {
    // Re-roll the whole tree.
    rule.root = random_action(config, rng);
    return;
  }
  if (roll < 45) {
    // Replace a random slot with a fresh subtree.
    auto slots = all_slots(rule);
    ActionPtr* slot = rng.pick(slots);
    *slot = random_action(config, rng, /*depth=*/2);
  } else if (roll < 75) {
    // Retune a tamper node if there is one; otherwise graft one at the root.
    std::vector<TamperAction*> tampers;
    collect_tampers(rule.root, tampers);
    if (!tampers.empty()) {
      TamperAction* tamper = rng.pick(tampers);
      if (rng.chance(0.5)) {
        const Field& field = random_tamper_field(rng);
        const TamperMode mode = tamper->mode();
        tamper->retarget(field, mode,
                         mode == TamperMode::kReplace
                             ? random_field_value(field, rng)
                             : "");
      } else {
        const bool corrupt = rng.chance(0.5);
        tamper->retarget(
            tamper->field(),
            corrupt ? TamperMode::kCorrupt : TamperMode::kReplace,
            corrupt ? "" : random_field_value(tamper->field(), rng));
      }
    } else {
      const Field& field = random_tamper_field(rng);
      rule.root = std::make_unique<TamperAction>(
          field, TamperMode::kReplace, random_field_value(field, rng),
          std::move(rule.root));
    }
  } else if (roll < 90) {
    // Prune: null out a random non-root slot (falls back to send).
    auto slots = all_slots(rule);
    if (slots.size() > 1) {
      *slots[1 + rng.index(slots.size() - 1)] = nullptr;
    } else {
      rule.root = nullptr;
    }
  } else {
    // Re-roll the trigger.
    rule.trigger =
        config.allowed_triggers[rng.index(config.allowed_triggers.size())];
  }

  // Enforce the size bound by pruning the deepest occupied slot.
  while (rule.root && rule.root->size() > kMaxTreeSize) {
    auto slots = all_slots(rule);
    ActionPtr* victim = nullptr;
    for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
      if (**it != nullptr) {
        victim = *it;
        break;
      }
    }
    if (victim == nullptr) break;
    *victim = nullptr;
  }
}

void crossover(Strategy& a, Strategy& b, Rng& rng) {
  if (a.outbound.empty() || b.outbound.empty()) return;
  TriggeredAction& rule_a = rng.pick(a.outbound);
  TriggeredAction& rule_b = rng.pick(b.outbound);
  auto slots_a = all_slots(rule_a);
  auto slots_b = all_slots(rule_b);
  ActionPtr* slot_a = rng.pick(slots_a);
  ActionPtr* slot_b = rng.pick(slots_b);
  std::swap(*slot_a, *slot_b);
}

}  // namespace caya
