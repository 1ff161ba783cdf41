// §3: client-side strategies do not generalize to the server side.
//
// The corpus models the working client-side strategies of Bock et al. whose
// shape is an *insertion packet* sent during/just after the 3-way handshake:
// a teardown-flagged packet (RST / RST+ACK / FIN / FIN+ACK) that the censor
// processes but the server never does, because it is either TTL-limited or
// checksum-corrupted (25 strategies in the paper; we generate the cross
// product of flag x invalidation x trigger below).
//
// server_analog_before() and server_analog_after() produce the paper's two
// analogs per strategy: the insertion packet sent before the SYN+ACK and
// after it.
#pragma once

#include <string>
#include <vector>

#include "geneva/strategy.h"

namespace caya {

enum class Invalidation { kTtlLimited, kTtlLimitedShallow, kCorruptChecksum };

struct ClientSideStrategy {
  std::string name;
  std::string teardown_flags;  // "R", "RA", "F", "FA"
  Invalidation invalidation = Invalidation::kTtlLimited;
  /// Trigger for the client-side original: the handshake ACK ("A") or the
  /// request ("PA").
  std::string trigger_flags = "A";

  [[nodiscard]] Strategy client_strategy() const;
  /// The two server-side analogs: insertion packet before / after SYN+ACK.
  [[nodiscard]] Strategy server_analog_before() const;
  [[nodiscard]] Strategy server_analog_after() const;
};

/// The §3 corpus (25 entries, as in the paper).
[[nodiscard]] const std::vector<ClientSideStrategy>& clientside_corpus();

}  // namespace caya
