#include "geneva/action.h"

#include <algorithm>

namespace caya {

namespace {

constexpr std::size_t arity(ActionKind kind) noexcept {
  switch (kind) {
    case ActionKind::kDuplicate:
    case ActionKind::kFragment:
      return 2;
    case ActionKind::kTamper:
      return 1;
    case ActionKind::kSend:
    case ActionKind::kDrop:
      break;
  }
  return 0;
}

/// Runs node i's subtree on `pkt`; returns subtree_end(tree, i).
std::size_t run(std::span<const ActionNode> tree, std::size_t i, Packet pkt,
                Rng& rng, std::vector<Packet>& out) {
  const ActionNode& node = tree[i];
  switch (node.kind) {
    case ActionKind::kSend:
      out.push_back(std::move(pkt));
      return i + 1;
    case ActionKind::kDrop:
      return i + 1;
    case ActionKind::kDuplicate: {
      Packet copy = pkt;
      const std::size_t second = run(tree, i + 1, std::move(pkt), rng, out);
      return run(tree, second, std::move(copy), rng, out);
    }
    case ActionKind::kTamper:
      if (node.mode == TamperMode::kReplace) {
        node.field->replace(pkt, node.value);
      } else {
        node.field->corrupt(pkt, rng);
      }
      return run(tree, i + 1, std::move(pkt), rng, out);
    case ActionKind::kFragment:
      break;
  }

  if (pkt.payload.size() < 2) {
    // Nothing to split: pass through the first branch.
    return subtree_end(tree, run(tree, i + 1, std::move(pkt), rng, out));
  }
  const std::size_t cut =
      std::clamp<std::size_t>(node.offset, 1, pkt.payload.size() - 1);

  Packet a = pkt;
  Packet b = pkt;
  a.payload.assign(pkt.payload.begin(),
                   pkt.payload.begin() + static_cast<std::ptrdiff_t>(cut));
  b.payload.assign(pkt.payload.begin() + static_cast<std::ptrdiff_t>(cut),
                   pkt.payload.end());
  if (node.proto == Proto::kTcp) {
    // TCP segmentation: the second segment advances the sequence number.
    b.tcp.seq = pkt.tcp.seq + static_cast<std::uint32_t>(cut);
  } else {
    // IP fragmentation: fragment offsets are in 8-byte units; the first
    // fragment sets More Fragments.
    a.ip.flags |= Ipv4Header::kFlagMoreFragments;
    b.ip.frag_offset = static_cast<std::uint16_t>(cut / 8);
  }

  const auto first_at = static_cast<std::ptrdiff_t>(out.size());
  const std::size_t second = run(tree, i + 1, std::move(a), rng, out);
  const auto second_at = static_cast<std::ptrdiff_t>(out.size());
  const std::size_t end = run(tree, second, std::move(b), rng, out);
  if (!node.in_order) {
    std::rotate(out.begin() + first_at, out.begin() + second_at, out.end());
  }
  return end;
}

/// Appends the DSL form of node i's subtree (nothing for send) to `out`;
/// returns subtree_end(tree, i).
std::size_t print(std::span<const ActionNode> tree, std::size_t i,
                  std::string& out) {
  const ActionNode& node = tree[i];
  switch (node.kind) {
    case ActionKind::kSend:
      return i + 1;
    case ActionKind::kDrop:
      out += "drop";
      return i + 1;
    case ActionKind::kTamper: {
      out += "tamper{";
      out += to_string(node.field->proto);
      out += ":";
      out += node.field->name;
      if (node.mode == TamperMode::kReplace) {
        out += ":replace:" + node.value.text + "}";
      } else {
        out += ":corrupt}";
      }
      if (tree[i + 1].kind == ActionKind::kSend) return i + 2;
      out += "(";
      const std::size_t end = print(tree, i + 1, out);
      out += ",)";
      return end;
    }
    case ActionKind::kDuplicate:
      out += "duplicate";
      break;
    case ActionKind::kFragment:
      out += "fragment{";
      out += to_string(node.proto);
      out += ":" + std::to_string(node.offset) + ":" +
             (node.in_order ? "True" : "False") + "}";
      break;
  }
  const std::size_t second = subtree_end(tree, i + 1);
  if (tree[i + 1].kind == ActionKind::kSend &&
      tree[second].kind == ActionKind::kSend) {
    return second + 1;
  }
  out += "(";
  print(tree, i + 1, out);
  out += ",";
  const std::size_t end = print(tree, second, out);
  out += ")";
  return end;
}

}  // namespace

ActionNode tamper_node(const Field& field, TamperMode mode,
                       std::string value) {
  return {.kind = ActionKind::kTamper,
          .mode = mode,
          .field = &field,
          .value = mode == TamperMode::kReplace ? field.parse(std::move(value))
                                                : FieldValue{}};
}

std::size_t subtree_end(std::span<const ActionNode> tree, std::size_t i) {
  // Each node fills one open slot and opens one per child.
  for (std::size_t open = 1; open > 0; ++i) {
    open = open - 1 + arity(tree[i].kind);
  }
  return i;
}

void run_action(std::span<const ActionNode> tree, Packet pkt, Rng& rng,
                std::vector<Packet>& out) {
  run(tree, 0, std::move(pkt), rng, out);
}

std::string action_to_string(std::span<const ActionNode> tree) {
  std::string out;
  print(tree, 0, out);
  return out.empty() ? "send" : out;
}

std::size_t action_size(std::span<const ActionNode> tree) {
  return static_cast<std::size_t>(
      std::ranges::count_if(tree, [](const ActionNode& node) {
        return node.kind != ActionKind::kSend;
      }));
}

}  // namespace caya
