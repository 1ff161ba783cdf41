#include "geneva/parser.h"

#include <cctype>
#include <charconv>

namespace caya {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Strategy parse_strategy() {
    Strategy strategy;
    skip_ws();
    while (!done() && peek() == '[') {
      strategy.outbound.push_back(parse_rule());
      skip_ws();
    }
    if (!done() && peek() == '\\') {
      expect('\\');
      expect('/');
      skip_ws();
      while (!done() && peek() == '[') {
        strategy.inbound.push_back(parse_rule());
        skip_ws();
      }
    }
    skip_ws();
    if (!done()) {
      throw ParseError("trailing input after strategy", pos_);
    }
    return strategy;
  }

  ActionTree parse_action_tree() {
    skip_ws();
    ActionTree tree;
    parse_tree(tree);
    skip_ws();
    if (!done()) throw ParseError("trailing input after action", pos_);
    return tree;
  }

 private:
  TriggeredAction parse_rule() {
    Trigger trigger = parse_trigger();
    expect('-');
    skip_ws();
    ActionTree tree;
    // An empty action ("[...]--|") means plain send.
    parse_slot(tree, peek() == '-');
    skip_ws();
    expect('-');
    expect('|');
    return {std::move(trigger), std::move(tree)};
  }

  Trigger parse_trigger() {
    expect('[');
    const std::string proto = take_until(':');
    expect(':');
    const std::string field = take_until(':');
    expect(':');
    const std::string value = take_until(']');
    expect(']');
    // The field table rejects an unknown protocol or field with
    // std::invalid_argument; the parser reports it at its offset.
    try {
      return Trigger(lookup_field(proto_from_string(proto), field), value);
    } catch (const std::invalid_argument& e) {
      throw ParseError(e.what(), pos_);
    }
  }

  // Appends the subtree at the cursor to `tree`, in preorder.
  void parse_tree(ActionTree& tree) {
    skip_ws();
    const std::size_t start = pos_;
    std::string name;
    while (!done() && std::isalpha(static_cast<unsigned char>(peek()))) {
      name.push_back(take());
    }
    if (name.empty()) throw ParseError("expected action name", start);

    if (name == "send" || name == "drop") {
      require_no_children(name);
      tree.push_back(
          {.kind = name == "send" ? ActionKind::kSend : ActionKind::kDrop});
      return;
    }
    if (name == "duplicate") {
      tree.push_back({.kind = ActionKind::kDuplicate});
      parse_two_children(tree);
      return;
    }
    if (name == "tamper") {
      const std::string spec = parse_braces();
      const std::size_t spec_end = pos_;
      auto [proto, field, mode, value] = split_tamper_spec(spec);
      const std::size_t at = tree.size();
      tree.emplace_back();
      if (tree[parse_two_children(tree)].kind != ActionKind::kSend) {
        throw ParseError("tamper takes a single child", pos_);
      }
      tree.pop_back();
      // An unknown field, or a replace value the field cannot hold, is an
      // error at the tamper's spec.
      try {
        tree[at] = tamper_node(lookup_field(proto_from_string(proto), field),
                               mode, value);
      } catch (const std::invalid_argument& e) {
        throw ParseError(e.what(), spec_end);
      }
      return;
    }
    if (name == "fragment") {
      const std::string spec = parse_braces();
      auto [proto, offset, in_order] = split_fragment_spec(spec);
      tree.push_back({.kind = ActionKind::kFragment,
                      .proto = proto,
                      .in_order = in_order,
                      .offset = offset});
      parse_two_children(tree);
      return;
    }
    throw ParseError("unknown action: " + name, start);
  }

  void require_no_children(const std::string& name) {
    skip_ws();
    if (!done() && peek() == '(') {
      throw ParseError(name + " takes no children", pos_);
    }
  }

  // Appends one child slot to `tree`: a send node when it is empty.
  void parse_slot(ActionTree& tree, bool empty) {
    if (empty) {
      tree.emplace_back();
    } else {
      parse_tree(tree);
    }
  }

  // Appends an optional "(A,B)" child list to `tree`; a missing list or an
  // empty slot is a send node. Returns the index where B starts.
  std::size_t parse_two_children(ActionTree& tree) {
    skip_ws();
    if (done() || peek() != '(') {
      tree.resize(tree.size() + 2);
      return tree.size() - 1;
    }
    expect('(');
    skip_ws();
    parse_slot(tree, peek() == ',' || peek() == ')');
    const std::size_t second = tree.size();
    skip_ws();
    if (peek() == ',') {
      expect(',');
      skip_ws();
      parse_slot(tree, peek() == ')');
      skip_ws();
    } else {
      tree.emplace_back();
    }
    expect(')');
    return second;
  }

  std::string parse_braces() {
    skip_ws();
    expect('{');
    std::string out;
    while (!done() && peek() != '}') out.push_back(take());
    expect('}');
    return out;
  }

  std::tuple<std::string, std::string, TamperMode, std::string>
  split_tamper_spec(const std::string& spec) {
    // proto:field:mode[:value] — the value is verbatim (it may contain
    // colons and spaces, e.g. "GET / HTTP1.").
    const std::size_t c1 = spec.find(':');
    if (c1 == std::string::npos) {
      throw ParseError("tamper spec missing field", pos_);
    }
    const std::size_t c2 = spec.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      throw ParseError("tamper spec missing mode", pos_);
    }
    std::size_t c3 = spec.find(':', c2 + 1);
    const std::string proto = spec.substr(0, c1);
    const std::string field = spec.substr(c1 + 1, c2 - c1 - 1);
    const std::string mode_str =
        c3 == std::string::npos ? spec.substr(c2 + 1)
                                : spec.substr(c2 + 1, c3 - c2 - 1);
    const std::string value =
        c3 == std::string::npos ? "" : spec.substr(c3 + 1);

    TamperMode mode;
    if (mode_str == "replace") {
      mode = TamperMode::kReplace;
    } else if (mode_str == "corrupt") {
      mode = TamperMode::kCorrupt;
    } else {
      throw ParseError("unknown tamper mode: " + mode_str, pos_);
    }
    return {proto, field, mode, value};
  }

  std::tuple<Proto, std::size_t, bool> split_fragment_spec(
      const std::string& spec) {
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : spec.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      throw ParseError("fragment spec needs proto:offset:inOrder", pos_);
    }
    const Proto proto = proto_from_string(spec.substr(0, c1));
    const std::string offset_str = spec.substr(c1 + 1, c2 - c1 - 1);
    std::size_t offset = 0;
    auto [ptr, ec] = std::from_chars(
        offset_str.data(), offset_str.data() + offset_str.size(), offset);
    if (ec != std::errc() || ptr != offset_str.data() + offset_str.size()) {
      throw ParseError("bad fragment offset: " + offset_str, pos_);
    }
    const std::string order = spec.substr(c2 + 1);
    bool in_order = false;
    if (order == "True" || order == "true" || order == "1") {
      in_order = true;
    } else if (order == "False" || order == "false" || order == "0") {
      in_order = false;
    } else {
      throw ParseError("bad fragment order: " + order, pos_);
    }
    return {proto, offset, in_order};
  }

  // ---- low-level helpers ----
  [[nodiscard]] bool done() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (done()) throw ParseError("unexpected end of input", pos_);
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (done() || text_[pos_] != c) {
      throw ParseError(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
  }
  std::string take_until(char stop) {
    std::string out;
    while (!done() && peek() != stop) out.push_back(take());
    return out;
  }
  void skip_ws() {
    while (!done() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Strategy parse_strategy(std::string_view text) {
  return Parser(text).parse_strategy();
}

ActionTree parse_action(std::string_view text) {
  return Parser(text).parse_action_tree();
}

}  // namespace caya
