// Genetic operators over strategies: random generation, point mutation, and
// subtree crossover. These are the "genetic building block" compositions of
// the paper's §2.2.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geneva/strategy.h"
#include "util/rng.h"

namespace caya {

/// Fields tamper may touch: the TCP fields the paper's strategies use.
inline constexpr std::array<std::pair<Proto, std::string_view>, 7>
    kTamperFields = {{{Proto::kTcp, "flags"},
                      {Proto::kTcp, "seq"},
                      {Proto::kTcp, "ack"},
                      {Proto::kTcp, "window"},
                      {Proto::kTcp, "load"},
                      {Proto::kTcp, "chksum"},
                      {Proto::kTcp, "options-wscale"}}};
/// Bounds on an evolved rule's action tree: node count and nesting depth.
/// Every evolved strategy has exactly one outbound rule and no inbound
/// rule (server-side evolution is outbound-only).
inline constexpr std::size_t kMaxTreeSize = 12;
inline constexpr std::size_t kMaxDepth = 5;

/// What the search is allowed to construct. The paper restricts server-side
/// evolution to triggering on SYN+ACK for DNS/HTTP/HTTPS/SMTP (the only
/// packet a server sends before censorship) — that restriction lives here.
struct GeneConfig {
  std::vector<Trigger> allowed_triggers = {
      {lookup_field(Proto::kTcp, "flags"), "SA"},
  };
};

/// A random one-rule strategy.
[[nodiscard]] Strategy random_strategy(const GeneConfig& config, Rng& rng);

/// In-place point mutation: grows, prunes, retunes, or regenerates part of
/// one rule.
void mutate(Strategy& strategy, const GeneConfig& config, Rng& rng);

/// Subtree crossover: swaps a random subtree between the two strategies.
void crossover(Strategy& a, Strategy& b, Rng& rng);

/// A plausible replace-value for the given tamper field (used by random
/// generation and mutation).
[[nodiscard]] std::string random_field_value(const Field& field, Rng& rng);

}  // namespace caya
