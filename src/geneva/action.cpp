#include "geneva/action.h"

#include <algorithm>

namespace caya {

void run_action(const Action* action, Packet pkt, Rng& rng,
                std::vector<Packet>& out) {
  if (action == nullptr) {
    out.push_back(std::move(pkt));  // implicit send
    return;
  }
  action->run(std::move(pkt), rng, out);
}

ActionPtr clone_action(const ActionPtr& action) {
  return action ? action->clone() : nullptr;
}

// ---- drop ----

void DropAction::run(Packet, Rng&, std::vector<Packet>&) const {}

ActionPtr DropAction::clone() const { return std::make_unique<DropAction>(); }

// ---- duplicate ----

void DuplicateAction::run(Packet pkt, Rng& rng,
                          std::vector<Packet>& out) const {
  Packet copy = pkt;
  run_action(first_.get(), std::move(pkt), rng, out);
  run_action(second_.get(), std::move(copy), rng, out);
}

std::string DuplicateAction::to_string() const {
  std::string out = "duplicate";
  if (first_ || second_) {
    out += "(";
    if (first_) out += first_->to_string();
    out += ",";
    if (second_) out += second_->to_string();
    out += ")";
  }
  return out;
}

ActionPtr DuplicateAction::clone() const {
  return std::make_unique<DuplicateAction>(clone_action(first_),
                                           clone_action(second_));
}

std::size_t DuplicateAction::size() const {
  return 1 + (first_ ? first_->size() : 0) + (second_ ? second_->size() : 0);
}

// ---- tamper ----

TamperAction::TamperAction(const Field& field, TamperMode mode,
                           std::string value, ActionPtr child)
    : child_(std::move(child)) {
  retarget(field, mode, std::move(value));
}

TamperAction::TamperAction(const TamperAction& other)
    : Action(other),
      field_(other.field_),
      mode_(other.mode_),
      value_(other.value_),
      child_(clone_action(other.child_)) {}

void TamperAction::retarget(const Field& field, TamperMode mode,
                            std::string value) {
  value_ = mode == TamperMode::kReplace ? field.parse(std::move(value))
                                        : FieldValue{};
  field_ = &field;
  mode_ = mode;
}

void TamperAction::run(Packet pkt, Rng& rng, std::vector<Packet>& out) const {
  if (mode_ == TamperMode::kReplace) {
    field_->replace(pkt, value_);
  } else {
    field_->corrupt(pkt, rng);
  }
  run_action(child_.get(), std::move(pkt), rng, out);
}

std::string TamperAction::to_string() const {
  std::string out = "tamper{" + std::string(caya::to_string(field_->proto)) +
                    ":" + std::string(field_->name) + ":" +
                    (mode_ == TamperMode::kReplace ? "replace" : "corrupt");
  if (mode_ == TamperMode::kReplace) out += ":" + value_.text;
  out += "}";
  if (child_) out += "(" + child_->to_string() + ",)";
  return out;
}

ActionPtr TamperAction::clone() const {
  return ActionPtr(new TamperAction(*this));
}

std::size_t TamperAction::size() const {
  return 1 + (child_ ? child_->size() : 0);
}

// ---- fragment ----

void FragmentAction::run(Packet pkt, Rng& rng,
                         std::vector<Packet>& out) const {
  if (pkt.payload.size() < 2) {
    // Nothing to split: pass through the first branch.
    run_action(first_.get(), std::move(pkt), rng, out);
    return;
  }
  const std::size_t cut =
      std::clamp<std::size_t>(offset_, 1, pkt.payload.size() - 1);

  Packet a = pkt;
  Packet b = pkt;
  a.payload.assign(pkt.payload.begin(),
                   pkt.payload.begin() + static_cast<std::ptrdiff_t>(cut));
  b.payload.assign(pkt.payload.begin() + static_cast<std::ptrdiff_t>(cut),
                   pkt.payload.end());
  if (proto_ == Proto::kTcp) {
    // TCP segmentation: the second segment advances the sequence number.
    b.tcp.seq = pkt.tcp.seq + static_cast<std::uint32_t>(cut);
    b.tcp_sum_tamper32(pkt.tcp.seq, b.tcp.seq);
  } else {
    // IP fragmentation: fragment offsets are in 8-byte units; the first
    // fragment sets More Fragments.
    a.ip.flags |= Ipv4Header::kFlagMoreFragments;
    b.ip.frag_offset = static_cast<std::uint16_t>(cut / 8);
  }

  std::vector<Packet> first_out;
  std::vector<Packet> second_out;
  run_action(first_.get(), std::move(a), rng, first_out);
  run_action(second_.get(), std::move(b), rng, second_out);
  if (in_order_) {
    out.insert(out.end(), std::make_move_iterator(first_out.begin()),
               std::make_move_iterator(first_out.end()));
    out.insert(out.end(), std::make_move_iterator(second_out.begin()),
               std::make_move_iterator(second_out.end()));
  } else {
    out.insert(out.end(), std::make_move_iterator(second_out.begin()),
               std::make_move_iterator(second_out.end()));
    out.insert(out.end(), std::make_move_iterator(first_out.begin()),
               std::make_move_iterator(first_out.end()));
  }
}

std::string FragmentAction::to_string() const {
  std::string out = "fragment{" + std::string(caya::to_string(proto_)) + ":" +
                    std::to_string(offset_) + ":" +
                    (in_order_ ? "True" : "False") + "}";
  if (first_ || second_) {
    out += "(";
    if (first_) out += first_->to_string();
    out += ",";
    if (second_) out += second_->to_string();
    out += ")";
  }
  return out;
}

ActionPtr FragmentAction::clone() const {
  return std::make_unique<FragmentAction>(proto_, offset_, in_order_,
                                          clone_action(first_),
                                          clone_action(second_));
}

std::size_t FragmentAction::size() const {
  return 1 + (first_ ? first_->size() : 0) + (second_ ? second_->size() : 0);
}

}  // namespace caya
