// Geneva triggers: "[TCP:flags:SA]" applies an action tree to packets whose
// field exactly equals the given value (exact match — "S" does not match
// SYN+ACK).
#pragma once

#include <string>

#include "packet/field.h"
#include "packet/packet.h"

namespace caya {

class Trigger {
 public:
  /// `field` is a row of the field table, resolved once by the parser or
  /// the genetic operators.
  Trigger(const Field& field, std::string value)
      : field_(&field), value_(std::move(value)) {}

  [[nodiscard]] bool matches(const Packet& pkt) const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] const Field& field() const noexcept { return *field_; }
  [[nodiscard]] const std::string& value() const noexcept { return value_; }

 private:
  const Field* field_;
  std::string value_;
};

}  // namespace caya
