// 256-bit unsigned integer on four 64-bit little-endian limbs.
//
// Substrate for the secp256k1 field (field.hpp) and scalar (scalar.hpp)
// arithmetic, and inv_mod, the one modular inversion both use. Only the
// operations the EC code needs are provided; everything is allocation free.
//
// NOTE: nothing in src/crypto is constant-time. That is acceptable for a
// research reproduction whose threat model is protocol-level Byzantine
// behaviour, not local side channels; do not reuse for production key
// handling.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace bft::crypto {

struct U256 {
  // limbs[0] is least significant.
  std::array<std::uint64_t, 4> limbs{0, 0, 0, 0};

  static U256 zero() { return U256{}; }
  static U256 one() { return U256{{1, 0, 0, 0}}; }
  static U256 from_u64(std::uint64_t v) { return U256{{v, 0, 0, 0}}; }

  /// Parses big-endian hex (up to 64 digits); throws std::invalid_argument.
  static U256 from_hex(std::string_view hex);

  /// Parses exactly 32 big-endian bytes.
  static U256 from_be_bytes(ByteView data);

  /// 32 big-endian bytes.
  Bytes to_be_bytes() const;
  std::array<std::uint8_t, 32> to_be_array() const;

  bool is_zero() const;
  bool is_odd() const { return (limbs[0] & 1) != 0; }
  /// Bit i (0 = least significant); i must be < 256.
  bool bit(unsigned i) const;
  /// Index of the highest set bit, or -1 if zero.
  int highest_bit() const;

  bool operator==(const U256& other) const { return limbs == other.limbs; }
  bool operator!=(const U256& other) const { return !(*this == other); }
};

/// -1 / 0 / +1 three-way comparison.
int cmp(const U256& a, const U256& b);
bool operator<(const U256& a, const U256& b);

/// out = a + b, returns the carry bit.
std::uint64_t add_with_carry(const U256& a, const U256& b, U256& out);

/// out = a - b, returns the borrow bit.
std::uint64_t sub_with_borrow(const U256& a, const U256& b, U256& out);

/// Full 256x256 -> 512-bit product, little-endian 8 limbs.
std::array<std::uint64_t, 8> mul_wide(const U256& a, const U256& b);

/// Logical shift right by one bit.
U256 shr1(const U256& a);

/// a^-1 mod m by the Bernstein-Yang safegcd (batches of 62 divsteps, see
/// u256.cpp), for an odd m and 0 < a < m with gcd(a, m) == 1. Variable time
/// (see the note above); throws std::domain_error on zero.
U256 inv_mod(const U256& a, const U256& m);

}  // namespace bft::crypto
