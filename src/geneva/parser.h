// Recursive-descent parser for Geneva's strategy DSL (paper appendix).
//
// parse_strategy(to_string(s)) == s for every strategy the printer emits,
// and every strategy listed in the paper parses verbatim.
#pragma once

#include <stdexcept>
#include <string_view>

#include "geneva/strategy.h"

namespace caya {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t position)
      : std::runtime_error(message + " (at offset " +
                           std::to_string(position) + ")"),
        position_(position) {}
  [[nodiscard]] std::size_t position() const noexcept { return position_; }

 private:
  std::size_t position_;
};

/// Parses a full strategy: "<outbound rules> \/ <inbound rules>". Either
/// side may be empty; the "\/" may be omitted when there are no inbound
/// rules. Throws ParseError on malformed input.
[[nodiscard]] Strategy parse_strategy(std::string_view text);

/// Parses a single action tree, e.g.
/// "duplicate(tamper{TCP:flags:replace:R},)". Throws ParseError.
[[nodiscard]] ActionTree parse_action(std::string_view text);

}  // namespace caya
