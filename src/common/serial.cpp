#include "common/serial.hpp"

namespace bft {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::bytes(ByteView v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void Writer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::raw(ByteView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) throw DecodeError("invalid boolean");
  return v == 1;
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes Reader::raw(std::size_t n) {
  const ByteView v = view(n);
  return Bytes(v.begin(), v.end());
}

ByteView Reader::view(std::size_t n) {
  need(n);
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Reader::expect_done() const {
  if (!done()) throw DecodeError("trailing bytes after message");
}

}  // namespace bft
