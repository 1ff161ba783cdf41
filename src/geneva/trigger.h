// Geneva triggers: "[TCP:flags:SA]" applies an action tree to packets whose
// field exactly equals the given value (exact match — "S" does not match
// SYN+ACK). The value is parsed for its field, as a tamper's replace value
// is, so "AS" means SA and compares as the same flag mask.
#pragma once

#include <string>

#include "packet/field.h"
#include "packet/packet.h"

namespace caya {

class Trigger {
 public:
  /// `field` is a row of the field table, resolved once by the parser or
  /// the genetic operators. Throws std::invalid_argument when the field
  /// cannot hold `value`.
  Trigger(const Field& field, std::string value)
      : field_(&field), value_(field.parse(std::move(value))) {}

  [[nodiscard]] bool matches(const Packet& pkt) const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] const Field& field() const noexcept { return *field_; }
  /// The value's DSL text, as written.
  [[nodiscard]] const std::string& value() const noexcept {
    return value_.text;
  }

 private:
  const Field* field_;
  FieldValue value_;
};

}  // namespace caya
