// Geneva's field table: every packet field a trigger or tamper can name.
//
// Geneva triggers ("[TCP:flags:SA]") and tamper actions
// ("tamper{TCP:ack:corrupt}") address packet fields by (protocol, name).
// Each field is declared once, as one row of a table that says how its value
// is spelled in the DSL, how many bits it holds and which override flag
// writing it pins. The strategy parser resolves every name to its row once;
// rendering, replacing and corrupting a field then never look a name up.
//
// tamper semantics from the paper's appendix: writes recompute checksums and
// lengths, unless the written field itself is a checksum or length, in which
// case the written value is pinned.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "packet/packet.h"
#include "util/rng.h"

namespace caya {

// kDns addresses fields *inside the TCP payload* when it carries a
// DNS-over-TCP message (the appendix's DNS tamper extension); on a payload
// that is not a parseable DNS query, DNS fields render as "" and writes to
// them are no-ops.
enum class Proto { kIp, kTcp, kDns };

[[nodiscard]] std::string_view to_string(Proto proto) noexcept;
/// Parses "IP"/"TCP"/"DNS" (case-sensitive, as in Geneva's DSL); throws
/// std::invalid_argument on others.
[[nodiscard]] Proto proto_from_string(std::string_view s);

/// How a field's value is spelled in the DSL.
enum class FieldForm : std::uint8_t {
  kDecimal,  // an unsigned integer
  kFlags,    // TCP flag letters ("SA")
  kAddress,  // a dotted quad
  kBytes,    // the payload, byte for byte
  kOption,   // a TCP option's value bytes read as one big-endian integer;
             // "" when the option is absent, and writing "" removes it
  kDnsName,  // the query name of a DNS-over-TCP payload
};

/// A trigger or replace value parsed for its field: the DSL text, printed
/// back verbatim, and the number it denotes for every form but kBytes and
/// kDnsName.
struct FieldValue {
  std::string text;
  std::uint64_t number = 0;
};

/// One row of the field table.
struct Field {
  Proto proto;
  std::string_view name;
  FieldForm form;
  /// Bits of the value: corrupt draws uniform(0, 2^width - 1), and an
  /// option holds width / 8 value bytes.
  unsigned width;
  /// The override flag a write sets, pinning the written checksum, length or
  /// offset against recomputation at serialization; null for none.
  bool Packet::*pin;
  std::uint8_t option_kind;  // kOption only
  /// Every form but kBytes and kDnsName: reads the value as a number
  /// (nullopt where the packet has none, such as an absent option).
  std::optional<std::uint64_t> (*get)(const Packet&);
  /// kDecimal, kFlags and kAddress: stores a value, keeping the low bits its
  /// header member holds.
  void (*set)(Packet&, std::uint64_t);

  /// Parses `text` as a trigger or replace value for this field; throws
  /// std::invalid_argument when the field cannot hold it.
  [[nodiscard]] FieldValue parse(std::string text) const;

  /// The field's DSL string form. An absent TCP option renders as ""
  /// (Geneva's convention).
  [[nodiscard]] std::string render(const Packet& pkt) const;

  /// Writes a parsed value, applying the row's pin.
  void replace(Packet& pkt, const FieldValue& value) const;

  /// Sets the field to random bits of its width ("corrupt" mode). Corrupting
  /// "load" replaces the payload with random bytes of a random nonzero
  /// length when the payload is empty, preserving length otherwise.
  void corrupt(Packet& pkt, Rng& rng) const;
};

/// The rows of `proto`, in canonical order.
[[nodiscard]] std::span<const Field> fields(Proto proto) noexcept;

/// The row named `name`; throws std::invalid_argument for unknown fields.
[[nodiscard]] const Field& lookup_field(Proto proto, std::string_view name);

}  // namespace caya
