// FNV-1a, 64-bit: the hash for digests that are persisted or pinned —
// snapshot checksums and library footers, the fitness-cache digest,
// species fingerprints and test digests. Integers are mixed byte by byte,
// least significant first, so a digest never depends on the host's byte
// order. In-memory keys that are never written out (flow-table slots, the
// substrate pool's shape digest) use a cheaper word mix.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace caya {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  constexpr void add(std::uint8_t byte) noexcept {
    hash_ = (hash_ ^ byte) * kPrime;
  }
  /// The low `width` bytes of `value`, least significant first.
  constexpr void add_le(std::uint64_t value, int width = 8) noexcept {
    for (int i = 0; i < width; ++i) {
      add(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  constexpr void add(std::span<const std::uint8_t> bytes) noexcept {
    for (const std::uint8_t byte : bytes) add(byte);
  }
  constexpr void add(std::string_view text) noexcept {
    for (const char c : text) add(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept {
    return hash_;
  }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  Fnv1a hash;
  hash.add(bytes);
  return hash.value();
}

}  // namespace caya
