// The secp256k1 base field F_p, p = 2^256 - 0x1000003D1.
//
// An element is a plain U256 kept fully reduced (< p): there is no Montgomery
// form, so an affine coordinate is its own field element. A 512-bit product
// is brought back below 2^256 by folding its high half with
// 2^256 == 0x1000003D1 (mod p), twice, then one conditional subtraction of p.
//
// NOTE: variable time, like the rest of src/crypto (see u256.hpp).
#pragma once

#include "crypto/u256.hpp"

namespace bft::crypto::secp256k1::fe {

using u128 = unsigned __int128;

/// 2^256 mod p.
inline constexpr std::uint64_t kFold = 0x1000003D1ULL;
inline constexpr U256 kP{{0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL}};

/// a >= p, for any a < 2^256.
inline bool geq_p(const U256& a) {
  return (a.limbs[1] & a.limbs[2] & a.limbs[3]) == ~0ULL &&
         a.limbs[0] >= kP.limbs[0];
}

/// (a + c) mod 2^256 for a word c.
inline U256 add_word(const U256& a, std::uint64_t c) {
  U256 r;
  u128 acc = c;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += a.limbs[i];
    r.limbs[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  return r;
}

inline U256 add(const U256& a, const U256& b) {
  U256 r;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += static_cast<u128>(a.limbs[i]) + b.limbs[i];
    r.limbs[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  // a + b < 2p: take p off once the sum reached it. Subtracting p is adding
  // kFold mod 2^256, whether or not the sum carried past 2^256.
  if (acc != 0 || geq_p(r)) r = add_word(r, kFold);
  return r;
}

inline U256 sub(const U256& a, const U256& b) {
  U256 r;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a.limbs[i]) - b.limbs[i] - borrow;
    r.limbs[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  if (borrow == 0) return r;
  // r = a - b + 2^256; a - b + p is r - kFold, and r > kFold since a - b > -p.
  std::uint64_t c = kFold;
  for (std::size_t i = 0; i < 4 && c != 0; ++i) {
    const std::uint64_t before = r.limbs[i];
    r.limbs[i] = before - c;
    c = before < c ? 1 : 0;
  }
  return r;
}

inline U256 neg(const U256& a) { return sub(U256::zero(), a); }

/// Reduces the 512-bit t (little-endian limbs) mod p.
inline U256 reduce_wide(const std::uint64_t (&t)[8]) {
  // lo + hi * kFold < 2^290; its top word (< 2^35) folds once more.
  U256 r;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc += static_cast<u128>(t[i + 4]) * kFold + t[i];
    r.limbs[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  acc = static_cast<u128>(static_cast<std::uint64_t>(acc)) * kFold + r.limbs[0];
  r.limbs[0] = static_cast<std::uint64_t>(acc);
  acc >>= 64;
  for (std::size_t i = 1; i < 4; ++i) {
    acc += r.limbs[i];
    r.limbs[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  // A carry past 2^256 leaves r below 2^68, so the third fold cannot carry.
  if (acc != 0) r = add_word(r, kFold);
  if (geq_p(r)) r = add_word(r, kFold);
  return r;
}

inline U256 mul(const U256& a, const U256& b) {
  std::uint64_t t[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.limbs[i]) * b.limbs[j] + t[i + j] + carry;
      t[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  return reduce_wide(t);
}

inline U256 sqr(const U256& a) {
  // Each cross product a_i * a_j (i < j) once, doubled, plus the squares.
  std::uint64_t t[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = i + 1; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.limbs[i]) * a.limbs[j] + t[i + j] + carry;
      t[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  for (std::size_t i = 7; i > 0; --i) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[0] <<= 1;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 sq = static_cast<u128>(a.limbs[i]) * a.limbs[i];
    acc += static_cast<u128>(t[2 * i]) + static_cast<std::uint64_t>(sq);
    t[2 * i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
    acc += static_cast<u128>(t[2 * i + 1]) + static_cast<std::uint64_t>(sq >> 64);
    t[2 * i + 1] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  return reduce_wide(t);
}

/// a^-1; a must be nonzero.
U256 inv(const U256& a);
/// a^e for a plain exponent.
U256 pow(const U256& a, const U256& e);

}  // namespace bft::crypto::secp256k1::fe
