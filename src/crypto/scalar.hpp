// The secp256k1 scalars: integers mod the group order
// n = 2^256 - 0x14551231950B75FC4402DA1732FC9BEBF.
//
// An element is a plain U256 kept fully reduced (< n), as in the base field
// of field.hpp. A 512-bit product is brought back below 2^256 by folding its
// high half with 2^256 == kFold (mod n, 129 bits) until that half is zero,
// then one conditional subtraction of n. Inversion is inv_mod(a, kN).
//
// NOTE: variable time, like the rest of src/crypto (see u256.hpp).
#pragma once

#include <array>

#include "crypto/u256.hpp"

namespace bft::crypto::secp256k1::sc {

inline constexpr U256 kN{{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                          0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL}};
/// n / 2 rounded down (the low-s bound of a signature).
inline constexpr U256 kHalfN{{0xDFE92F46681B20A0ULL, 0x5D576E7357A4501DULL,
                              0xFFFFFFFFFFFFFFFFULL, 0x7FFFFFFFFFFFFFFFULL}};
/// 2^256 mod n.
inline constexpr U256 kFold{{0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1, 0}};

/// a mod n, for any a < 2^256 (< 2n, so one subtraction suffices).
inline U256 reduce(U256 a) {
  if (!(a < kN)) sub_with_borrow(a, kN, a);
  return a;
}

inline U256 add(const U256& a, const U256& b) {
  U256 sum;
  if (add_with_carry(a, b, sum) != 0 || !(sum < kN)) sub_with_borrow(sum, kN, sum);
  return sum;
}

inline U256 sub(const U256& a, const U256& b) {
  U256 diff;
  if (sub_with_borrow(a, b, diff) != 0) add_with_carry(diff, kN, diff);
  return diff;
}

inline U256 neg(const U256& a) { return sub(U256::zero(), a); }

/// Reduces the 512-bit t (little-endian limbs) mod n.
inline U256 reduce_wide(std::array<std::uint64_t, 8> t) {
  // t = lo + hi * 2^256 == lo + hi * kFold: each fold takes about 127 bits
  // off (512 -> 386 -> 260 -> 257 -> 256 bits at most), so nothing carries
  // out of t.
  while ((t[4] | t[5] | t[6] | t[7]) != 0) {
    const std::array<std::uint64_t, 8> folded =
        mul_wide(U256{{t[4], t[5], t[6], t[7]}}, kFold);
    unsigned __int128 acc = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      acc += folded[i];
      if (i < 4) acc += t[i];
      t[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
  }
  return reduce(U256{{t[0], t[1], t[2], t[3]}});
}

inline U256 mul(const U256& a, const U256& b) { return reduce_wide(mul_wide(a, b)); }

}  // namespace bft::crypto::secp256k1::sc
