// Modular arithmetic over a fixed odd 256-bit modulus using Montgomery
// multiplication (CIOS): the secp256k1 scalar group (mod n). The base field
// has its own representation (field.hpp); both invert with inv_mod.
//
// Values passed to mul/sqr/pow/inv must already be in Montgomery form
// (via to_mont); add/sub work in either representation as long as both
// operands use the same one.
//
// NOTE: this implementation is *not* constant-time. That is acceptable for a
// research reproduction whose threat model is protocol-level Byzantine
// behaviour, not local side channels; do not reuse for production key
// handling.
#pragma once

#include "crypto/u256.hpp"

namespace bft::crypto {

class ModArith {
 public:
  /// modulus must be odd and > 2^255 (true for secp256k1 p and n).
  explicit ModArith(const U256& modulus);

  const U256& modulus() const { return m_; }
  /// R mod m, i.e. the Montgomery form of 1.
  const U256& mont_one() const { return r_mod_m_; }

  U256 to_mont(const U256& a) const;
  U256 from_mont(const U256& a) const;

  /// (a + b) mod m; operands must be < m.
  U256 add(const U256& a, const U256& b) const;
  /// (a - b) mod m; operands must be < m.
  U256 sub(const U256& a, const U256& b) const;
  /// (-a) mod m.
  U256 neg(const U256& a) const;
  /// Montgomery product: a*b*R^-1 mod m.
  U256 mul(const U256& a, const U256& b) const;
  U256 sqr(const U256& a) const { return mul(a, a); }
  /// Montgomery exponentiation; base in Montgomery form, exponent plain.
  U256 pow(const U256& base, const U256& exp) const;
  /// Modular inverse (modulus must be prime) via inv_mod; input/output in
  /// Montgomery form. Throws std::domain_error on zero.
  U256 inv(const U256& a) const;

  /// Reduces an arbitrary 256-bit value (not Montgomery form) mod m.
  U256 reduce(const U256& a) const;

 private:
  U256 m_;
  std::uint64_t n0inv_;  // -m^-1 mod 2^64
  U256 r_mod_m_;         // 2^256 mod m
  U256 r2_mod_m_;        // 2^512 mod m
  U256 r3_mod_m_;        // 2^768 mod m
};

/// a^-1 mod m by the Bernstein-Yang safegcd (batches of 62 divsteps, see
/// modarith.cpp), for an odd m and 0 < a < m with gcd(a, m) == 1. Variable
/// time (see the note above); throws std::domain_error on zero.
U256 inv_mod(const U256& a, const U256& m);

}  // namespace bft::crypto
