// Minimal TLS 1.2 record/handshake shaping: just enough structure that a
// censor doing DPI can (and must) parse a real ClientHello to find the SNI,
// exactly the trigger surface Iranian and Chinese HTTPS censorship uses.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace caya {

/// A TLS ClientHello (record + handshake framing) whose only extension is
/// server_name = `sni`, in one exactly reserved buffer.
[[nodiscard]] Bytes build_client_hello(std::string_view sni);

/// A minimal ServerHello + dummy certificate record the client treats as the
/// "correct, unaltered data" for success checking, in one exactly reserved
/// buffer.
[[nodiscard]] Bytes build_server_hello();

/// The SNI host of a byte stream that starts with a TLS ClientHello record,
/// viewed in place in `stream`. Returns nullopt if the stream is not a
/// well-formed ClientHello (truncated, wrong types, missing extension).
[[nodiscard]] std::optional<std::string_view> parse_sni(
    std::span<const std::uint8_t> stream);

}  // namespace caya
