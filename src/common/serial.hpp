// Minimal deterministic binary serialization.
//
// All wire messages, block framing and digests use this format so that two
// replicas always produce byte-identical encodings for equal values:
//   * fixed-width integers are little-endian;
//   * byte strings / vectors are length-prefixed with a u32;
//   * no padding, no alignment, no implementation-defined layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace bft {

/// Error thrown by Reader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends encoded values to an owned buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void bytes(ByteView v);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view v);
  /// Raw bytes with NO length prefix (for fixed-size fields like hashes).
  void raw(ByteView v);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Consumes encoded values from a non-owned view.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean();

  Bytes bytes();
  std::string str();
  /// Reads exactly `n` raw bytes (fixed-size fields).
  Bytes raw(std::size_t n);
  /// Reads exactly `n` raw bytes as a view into the input (no copy).
  ByteView view(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Clamp an attacker-controlled element count for container reserve():
  /// never pre-allocate more elements than the remaining bytes could encode.
  std::size_t safe_reserve(std::uint32_t claimed_count) const {
    return std::min<std::size_t>(claimed_count, remaining());
  }
  bool done() const { return remaining() == 0; }
  /// Throws DecodeError unless the whole input was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace bft
