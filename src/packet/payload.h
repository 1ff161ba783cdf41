// Pooled, refcounted, copy-on-write payload buffer.
//
// Copying a Packet used to deep-copy its payload Bytes; with duplicate/
// fragment fan-out, per-hop closures, and full-Packet trace events, a single
// trial copied the same HTTP request dozens of times. A Payload instead
// shares one immutable, refcounted buffer: copies bump a counter, and only
// the mutating paths (tamper actions, link corruption, fragmentation)
// detach onto a private buffer first. Buffers come from the per-thread
// BufferArena and the rep headers from a per-thread free pool, so the
// steady-state packet path allocates nothing.
//
// Thread model: a Payload value is not thread-safe, but distinct Payload
// copies sharing one rep may live on different threads (trace events travel
// with trial results), so the refcount is atomic. Release returns buffers to
// the *destroying* thread's pools.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "util/bytes.h"

namespace caya {

class Payload {
 public:
  Payload() noexcept = default;
  /// Adopts `bytes` (no copy). Intentionally implicit: Packet payloads are
  /// built from Bytes everywhere (tests, make_tcp_packet, tampers).
  Payload(Bytes bytes);  // NOLINT(google-explicit-constructor)
  Payload(const Payload& other) noexcept;
  Payload(Payload&& other) noexcept : rep_(other.rep_) {
    other.rep_ = nullptr;
  }
  Payload& operator=(const Payload& other) noexcept;
  Payload& operator=(Payload&& other) noexcept;
  Payload& operator=(Bytes bytes);
  ~Payload();

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept;
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size();
  }
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }
  /// The underlying buffer, for callbacks that take `const Bytes&`.
  [[nodiscard]] const Bytes& bytes() const noexcept;
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const std::uint8_t>() const noexcept {
    return {data(), size()};
  }

  /// Detaches from any sharers (copying the bytes into a private arena
  /// buffer) and returns it for in-place mutation.
  Bytes& mutate();

  void clear() noexcept;
  /// Replaces the contents. Building the new buffer before releasing the
  /// old one makes self-referencing spans safe (fragmentation slices a
  /// payload into two Payloads that alias it).
  void assign(std::span<const std::uint8_t> bytes);
  template <class It>
  void assign(It first, It last) {
    assign(std::span<const std::uint8_t>(
        std::to_address(first),
        static_cast<std::size_t>(std::distance(first, last))));
  }

  /// True when both payloads share one underlying buffer (CoW tests).
  [[nodiscard]] bool shares_buffer_with(const Payload& other) const noexcept {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  friend bool operator==(const Payload& a, const Payload& b) noexcept;
  friend bool operator==(const Payload& a, const Bytes& b) noexcept;

  struct Rep;  // opaque outside payload.cpp; public only for the rep pool

 private:
  static Rep* acquire_rep(Bytes bytes);
  static void release_rep(Rep* rep) noexcept;
  Rep* rep_ = nullptr;  // nullptr == empty payload
};

}  // namespace caya
