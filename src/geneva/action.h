// Geneva's five genetic building blocks (paper appendix):
//
//   duplicate(A1,A2)                duplicates the packet, applies A1 to the
//                                   first copy and A2 to the second
//   fragment{proto:offset:inOrder}(A1,A2)
//                                   IP fragmentation / TCP segmentation
//   tamper{proto:field:mode[:val]}(A)
//                                   replace or corrupt a header/payload field
//   drop                            discards the packet
//   send                            puts the packet on the wire
//
// An action tree is one array of plain nodes in preorder: each node is
// followed by the subtrees of its children, so node i's subtree is the
// contiguous range [i, subtree_end(tree, i)). Every child slot holds a node;
// a slot the DSL leaves empty is a send node. Applied to one packet, a tree
// yields an ordered list of packets to transmit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "packet/field.h"
#include "packet/packet.h"
#include "util/rng.h"

namespace caya {

enum class ActionKind : std::uint8_t {
  kSend,
  kDrop,
  kDuplicate,  // A1 runs on the original, A2 on the copy; A1's output first
  kTamper,     // edits a field, then runs its one child
  kFragment,   // A1 runs on the first piece, A2 on the second
};

enum class TamperMode : std::uint8_t { kReplace, kCorrupt };

/// One node of an action tree; only its kind's members are meaningful.
struct ActionNode {
  ActionKind kind = ActionKind::kSend;
  TamperMode mode = TamperMode::kReplace;
  // fragment: TCP mode segments the payload at `offset` bytes (adjusting
  // seq); IP mode splits it into two IP fragments. in_order=false delivers
  // the second piece first.
  Proto proto = Proto::kTcp;
  bool in_order = true;
  std::size_t offset = 0;
  // tamper: a row of the field table and the replace value parsed for it
  // (empty for corrupt). Per the appendix, tamper recomputes checksums and
  // lengths unless the tampered field *is* a checksum or length.
  const Field* field = nullptr;
  FieldValue value{};
};

using ActionTree = std::vector<ActionNode>;

/// A tamper node. A replace value is parsed for the field here, once;
/// throws std::invalid_argument when the field cannot hold it. Corrupt
/// ignores `value`.
[[nodiscard]] ActionNode tamper_node(const Field& field, TamperMode mode,
                                     std::string value);

/// One past the last node of node i's subtree.
[[nodiscard]] std::size_t subtree_end(std::span<const ActionNode> tree,
                                      std::size_t i);

/// Applies the tree to `pkt`, appending the resulting packets to `out` in
/// transmission order.
void run_action(std::span<const ActionNode> tree, Packet pkt, Rng& rng,
                std::vector<Packet>& out);

/// DSL form of the tree (the paper's syntax); a lone send prints as "send".
[[nodiscard]] std::string action_to_string(std::span<const ActionNode> tree);

/// Number of nodes other than send (Geneva's complexity measure for its
/// fitness penalty).
[[nodiscard]] std::size_t action_size(std::span<const ActionNode> tree);

}  // namespace caya
