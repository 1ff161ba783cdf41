#include "geneva/mutation.h"

#include <array>

namespace caya {

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

namespace {

/// A uniformly drawn entry of kTamperFields.
const Field& random_tamper_field(Rng& rng) {
  const auto& [proto, name] = kTamperFields[rng.index(kTamperFields.size())];
  return lookup_field(proto, name);
}

/// Appends a random subtree of bounded depth to `tree`, in preorder.
void grow(Rng& rng, std::size_t depth, ActionTree& tree) {
  const bool must_leaf = depth >= kMaxDepth;
  const auto roll = rng.uniform(0, 99);
  const auto child = [&](double p) {
    if (rng.chance(p)) {
      grow(rng, depth + 1, tree);
    } else {
      tree.emplace_back();  // send
    }
  };

  if (!must_leaf && roll < 30) {
    // duplicate with random children (send is common).
    tree.push_back({.kind = ActionKind::kDuplicate});
    child(0.6);
    child(0.6);
  } else if (!must_leaf && roll < 70) {
    const Field& field = random_tamper_field(rng);
    const bool corrupt = rng.chance(0.4);
    tree.push_back(tamper_node(
        field, corrupt ? TamperMode::kCorrupt : TamperMode::kReplace,
        corrupt ? "" : random_field_value(field, rng)));
    child(0.4);
  } else if (!must_leaf && roll < 78) {
    const std::size_t at = tree.size();
    tree.push_back({.kind = ActionKind::kFragment, .proto = Proto::kTcp});
    child(0.4);
    child(0.4);
    // Drawn after the children, in two statements, so that the draw order
    // does not depend on the compiler.
    tree[at].in_order = rng.chance(0.7);
    tree[at].offset = 1 + rng.index(16);
  } else {
    tree.push_back(
        {.kind = roll < 88 ? ActionKind::kDrop : ActionKind::kSend});
  }
}

ActionTree random_action(Rng& rng, std::size_t depth) {
  ActionTree tree;
  grow(rng, depth, tree);
  return tree;
}

ActionTree::iterator node_at(ActionTree& tree, std::size_t i) {
  return tree.begin() + static_cast<std::ptrdiff_t>(i);
}

/// Replaces node i's subtree with `subtree`.
void splice(ActionTree& tree, std::size_t i, const ActionTree& subtree) {
  const auto at = tree.erase(node_at(tree, i),
                             node_at(tree, subtree_end(tree, i)));
  tree.insert(at, subtree.begin(), subtree.end());
}

/// Cuts node i's subtree down to one send node.
void prune(ActionTree& tree, std::size_t i) {
  tree.erase(node_at(tree, i + 1), node_at(tree, subtree_end(tree, i)));
  tree[i] = {};
}

}  // namespace

Strategy random_strategy(const GeneConfig& config, Rng& rng) {
  Strategy strategy;
  const Trigger trigger =
      config.allowed_triggers[rng.index(config.allowed_triggers.size())];
  strategy.outbound.push_back({trigger, random_action(rng, 0)});
  return strategy;
}

void mutate(Strategy& strategy, const GeneConfig& config, Rng& rng) {
  if (strategy.outbound.empty()) {
    strategy = random_strategy(config, rng);
    return;
  }
  TriggeredAction& rule = rng.pick(strategy.outbound);
  ActionTree& tree = rule.tree;
  const auto roll = rng.uniform(0, 99);

  if (roll < 15) {
    // Re-roll the whole tree.
    tree = random_action(rng, 0);
    return;
  }
  if (roll < 45) {
    // Replace a random slot with a fresh subtree.
    const std::size_t slot = rng.index(tree.size());
    splice(tree, slot, random_action(rng, /*depth=*/2));
  } else if (roll < 75) {
    // Retune a tamper node if there is one; otherwise graft one at the root.
    std::vector<std::size_t> tampers;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      if (tree[i].kind == ActionKind::kTamper) tampers.push_back(i);
    }
    if (!tampers.empty()) {
      ActionNode& tamper = tree[rng.pick(tampers)];
      if (rng.chance(0.5)) {
        const Field& field = random_tamper_field(rng);
        const TamperMode mode = tamper.mode;
        tamper = tamper_node(field, mode,
                             mode == TamperMode::kReplace
                                 ? random_field_value(field, rng)
                                 : "");
      } else {
        const Field& field = *tamper.field;
        const bool corrupt = rng.chance(0.5);
        tamper = tamper_node(
            field, corrupt ? TamperMode::kCorrupt : TamperMode::kReplace,
            corrupt ? "" : random_field_value(field, rng));
      }
    } else {
      const Field& field = random_tamper_field(rng);
      tree.insert(tree.begin(),
                  tamper_node(field, TamperMode::kReplace,
                              random_field_value(field, rng)));
    }
  } else if (roll < 90) {
    // Prune a random non-root slot to send (the root of a one-node tree).
    prune(tree, tree.size() > 1 ? 1 + rng.index(tree.size() - 1) : 0);
  } else {
    // Re-roll the trigger.
    rule.trigger =
        config.allowed_triggers[rng.index(config.allowed_triggers.size())];
  }

  // Enforce the size bound by pruning the last node that is not send.
  while (action_size(tree) > kMaxTreeSize) {
    std::size_t last = tree.size() - 1;
    while (tree[last].kind == ActionKind::kSend) --last;
    prune(tree, last);
  }
}

void crossover(Strategy& a, Strategy& b, Rng& rng) {
  if (a.outbound.empty() || b.outbound.empty()) return;
  ActionTree& tree_a = rng.pick(a.outbound).tree;
  ActionTree& tree_b = rng.pick(b.outbound).tree;
  const std::size_t at_a = rng.index(tree_a.size());
  const std::size_t at_b = rng.index(tree_b.size());
  const ActionTree from_a(node_at(tree_a, at_a),
                          node_at(tree_a, subtree_end(tree_a, at_a)));
  splice(tree_a, at_a,
         ActionTree(node_at(tree_b, at_b),
                    node_at(tree_b, subtree_end(tree_b, at_b))));
  splice(tree_b, at_b, from_a);
}

}  // namespace caya
