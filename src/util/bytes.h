// Byte-buffer helpers shared by the packet, censor, and application layers.
//
// All wire formats in this project are big-endian; the Writer/Reader pair
// below is the single place where host <-> network byte-order conversion
// happens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace caya {

using Bytes = std::vector<std::uint8_t>;

/// Serializes integers/blobs into a growing byte vector (network byte order).
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopts `buf` as the output vector (cleared, capacity retained) — lets
  /// hot paths write into an arena-recycled buffer instead of allocating.
  explicit ByteWriter(Bytes buf) noexcept : buf_(std::move(buf)) {
    buf_.clear();
  }

  /// Pre-sizes the buffer for a known output length so a serializer does a
  /// single exact allocation (or none, when adopting a recycled buffer whose
  /// capacity already suffices) instead of geometric growth.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v & 0xffff));
  }
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void raw(std::string_view data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  [[nodiscard]] const Bytes& bytes() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Thrown by ByteReader when a read runs past the end of the buffer.
class ShortReadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deserializes integers/blobs from a byte span (network byte order).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    need(2);
    auto hi = static_cast<std::uint16_t>(data_[pos_]) << 8;
    auto lo = static_cast<std::uint16_t>(data_[pos_ + 1]);
    pos_ += 2;
    return static_cast<std::uint16_t>(hi | lo);
  }
  [[nodiscard]] std::uint32_t u32() {
    auto hi = static_cast<std::uint32_t>(u16()) << 16;
    return hi | u16();
  }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw ShortReadError("short read: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(remaining()));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Renders bytes as lowercase hex, e.g. {0xde, 0xad} -> "dead".
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

/// Parses lowercase/uppercase hex into bytes; throws std::invalid_argument on
/// odd length or non-hex characters.
[[nodiscard]] Bytes from_hex(std::string_view hex);

/// Converts a byte span to a std::string (no encoding applied).
[[nodiscard]] std::string to_string(std::span<const std::uint8_t> data);
[[nodiscard]] inline std::string to_string(const Bytes& data) {
  return {data.begin(), data.end()};
}

/// Converts a string to bytes (no encoding applied).
[[nodiscard]] Bytes to_bytes(std::string_view s);

/// The bytes of `s`, viewed in place (no copy, no encoding applied).
[[nodiscard]] inline std::span<const std::uint8_t> byte_view(
    std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// `data` viewed as text, in place.
[[nodiscard]] inline std::string_view text_view(
    std::span<const std::uint8_t> data) noexcept {
  return {reinterpret_cast<const char*>(data.data()), data.size()};
}

/// True if `haystack` contains `needle` as a raw byte subsequence.
[[nodiscard]] bool contains(std::span<const std::uint8_t> haystack,
                            std::string_view needle);

}  // namespace caya
