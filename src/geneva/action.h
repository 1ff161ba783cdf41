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
// An action tree is applied to one packet and yields an ordered list of
// packets to transmit. send has no node of its own: it is the null slot,
// and missing children default to it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "packet/field.h"
#include "packet/packet.h"
#include "util/rng.h"

namespace caya {

class Action;
using ActionPtr = std::unique_ptr<Action>;

class Action {
 public:
  virtual ~Action() = default;

  /// Applies the subtree to `pkt`, appending resulting packets to `out` in
  /// transmission order.
  virtual void run(Packet pkt, Rng& rng, std::vector<Packet>& out) const = 0;

  /// DSL form of this subtree (the paper's syntax).
  [[nodiscard]] virtual std::string to_string() const = 0;

  [[nodiscard]] virtual ActionPtr clone() const = 0;

  /// Number of nodes in the subtree (Geneva's complexity measure for its
  /// fitness penalty).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Direct children, for tree surgery by the genetic operators. Entries may
  /// be null (= implicit send).
  [[nodiscard]] virtual std::vector<ActionPtr*> children() { return {}; }
};

/// Leaf: discard the packet.
class DropAction final : public Action {
 public:
  void run(Packet pkt, Rng& rng, std::vector<Packet>& out) const override;
  [[nodiscard]] std::string to_string() const override { return "drop"; }
  [[nodiscard]] ActionPtr clone() const override;
  [[nodiscard]] std::size_t size() const override { return 1; }
};

/// duplicate(A1,A2): copy the packet; A1 runs on the original, A2 on the
/// copy; all of A1's output precedes A2's.
class DuplicateAction final : public Action {
 public:
  DuplicateAction() = default;
  DuplicateAction(ActionPtr first, ActionPtr second)
      : first_(std::move(first)), second_(std::move(second)) {}

  void run(Packet pkt, Rng& rng, std::vector<Packet>& out) const override;
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] ActionPtr clone() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::vector<ActionPtr*> children() override {
    return {&first_, &second_};
  }

 private:
  ActionPtr first_;   // null = send
  ActionPtr second_;  // null = send
};

enum class TamperMode { kReplace, kCorrupt };

/// tamper{proto:field:mode[:newValue]}(A): edit a field, then run A.
/// Per the appendix, tamper recomputes checksums and lengths unless the
/// tampered field *is* a checksum or length (Packet's override flags).
class TamperAction final : public Action {
 public:
  /// `field` is a row of the field table. A replace value is parsed for the
  /// field here, once; throws std::invalid_argument when the field cannot
  /// hold it. Corrupt ignores `value`.
  TamperAction(const Field& field, TamperMode mode, std::string value,
               ActionPtr child = nullptr);

  void run(Packet pkt, Rng& rng, std::vector<Packet>& out) const override;
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] ActionPtr clone() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::vector<ActionPtr*> children() override {
    return {&child_};
  }

  [[nodiscard]] const Field& field() const noexcept { return *field_; }
  [[nodiscard]] TamperMode mode() const noexcept { return mode_; }
  [[nodiscard]] const std::string& value() const noexcept {
    return value_.text;
  }

  /// The genetic operators' retune: field, mode and value change together,
  /// so the value is always parsed for the field it is written to.
  void retarget(const Field& field, TamperMode mode, std::string value);

 private:
  TamperAction(const TamperAction& other);  // deep copy, for clone()

  const Field* field_;
  TamperMode mode_;
  FieldValue value_;  // empty for corrupt
  ActionPtr child_;   // null = send
};

/// fragment{proto:offset:inOrder}(A1,A2): split the packet in two.
/// TCP mode segments the payload at `offset` bytes (adjusting seq); IP mode
/// splits the payload into two IP fragments. A1 runs on the first piece, A2
/// on the second; inOrder=false swaps delivery order.
class FragmentAction final : public Action {
 public:
  FragmentAction(Proto proto, std::size_t offset, bool in_order,
                 ActionPtr first = nullptr, ActionPtr second = nullptr)
      : proto_(proto),
        offset_(offset),
        in_order_(in_order),
        first_(std::move(first)),
        second_(std::move(second)) {}

  void run(Packet pkt, Rng& rng, std::vector<Packet>& out) const override;
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] ActionPtr clone() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::vector<ActionPtr*> children() override {
    return {&first_, &second_};
  }

  [[nodiscard]] Proto proto() const noexcept { return proto_; }
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] bool in_order() const noexcept { return in_order_; }

 private:
  Proto proto_;
  std::size_t offset_;
  bool in_order_;
  ActionPtr first_;
  ActionPtr second_;
};

/// Runs `action` (or send if null) on `pkt`.
void run_action(const Action* action, Packet pkt, Rng& rng,
                std::vector<Packet>& out);

/// Deep-copies a possibly-null action.
[[nodiscard]] ActionPtr clone_action(const ActionPtr& action);

}  // namespace caya
